package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// stampBlock is the verification granularity: every block of this many
// payload bytes carries one sequence stamp at a seeded offset.
const stampBlock = 64 << 10

// payload is one workload's message content: seeded pseudo-random bytes
// plus the positions where each message carries its sequence number —
// at both ends and at one seeded offset per 64 KiB block. The engine
// only ever sees the stamped buffers.
type payload struct {
	base []byte
	offs []int
	key  uint64
}

func newPayload(rng *rand.Rand, size int) *payload {
	if size < 32 {
		panic("bench: payload must hold head, tail and one block stamp")
	}
	p := &payload{base: make([]byte, size), key: rng.Uint64() | 1}
	rng.Read(p.base)
	p.offs = append(p.offs, 0, size-8)
	for lo := 0; lo < size; lo += stampBlock {
		hi := min(lo+stampBlock, size)
		// Keep block stamps clear of the head and tail stamps.
		first, last := max(lo, 8), min(hi, size-8)-8
		if last < first {
			continue
		}
		p.offs = append(p.offs, first+rng.Intn(last-first+1))
	}
	return p
}

// newBuf returns a message buffer pre-filled with the base bytes.
func (p *payload) newBuf() []byte { return append([]byte(nil), p.base...) }

// head reads the stamp at the front of a received buffer.
func (p *payload) head(buf []byte) uint64 {
	if len(buf) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(buf) ^ p.key
}

// stamp writes seq into a buffer that already holds the base bytes.
func (p *payload) stamp(buf []byte, seq uint64) {
	for _, o := range p.offs {
		binary.LittleEndian.PutUint64(buf[o:], seq^p.key)
	}
}

// stampsOK checks the sequence number at every stamp position.
func (p *payload) stampsOK(buf []byte, seq uint64) bool {
	if len(buf) != len(p.base) {
		return false
	}
	for _, o := range p.offs {
		if binary.LittleEndian.Uint64(buf[o:]) != seq^p.key {
			return false
		}
	}
	return true
}

// fullOK compares every byte against the expected message, rebuilt in
// scratch (len(scratch) == payload size).
func (p *payload) fullOK(buf, scratch []byte, seq uint64) bool {
	copy(scratch, p.base)
	p.stamp(scratch, seq)
	return bytes.Equal(buf, scratch)
}
