// Package wire defines the on-the-wire representation used by the engine:
// packet headers, eager aggregation containers (several logical packets
// packed into one network message, as NewMadeleine's optimizer does),
// rendezvous control messages, chunked large-message framing, and the
// reassembly of chunks striped across rails.
//
// Everything is encoded with encoding/binary in little-endian order; the
// formats are self-describing enough for tests to round-trip arbitrary
// inputs (see the property tests).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind discriminates the message types exchanged on a rail.
type Kind uint8

const (
	// KindEager carries one or more complete logical packets.
	KindEager Kind = iota + 1
	// KindRTS is a rendezvous request-to-send (sender → receiver).
	KindRTS
	// KindCTS is a rendezvous clear-to-send (receiver → sender).
	KindCTS
	// KindData carries one chunk of a rendezvous transfer.
	KindData
	// KindAck signals completion of a rendezvous transfer.
	KindAck
)

func (k Kind) String() string {
	switch k {
	case KindEager:
		return "eager"
	case KindRTS:
		return "rts"
	case KindCTS:
		return "cts"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// HeaderSize is the encoded size of a Header in bytes.
const HeaderSize = 1 + 1 + 2 + 4 + 4 + 8 + 8 + 8 + 8

// Header prefixes every network message.
type Header struct {
	Kind Kind
	// Rail is the index of the rail the message was sent on (debugging).
	Rail uint8
	// Count is the number of logical packets in a KindEager container.
	Count uint16
	// Tag is the application-level matching tag (single-packet messages).
	Tag uint32
	// Origin is the node that submitted the message this frame belongs
	// to. Together with MsgID it is the message's trace id: frames
	// about message X carry X's origin — RTS/Data/Eager stamp the
	// sender's own node id, CTS and Ack echo the id of the node the
	// transfer came from — so both endpoints record trace events
	// against one identity and cross-node spans stitch by equality.
	Origin uint32
	// MsgID identifies the logical message across chunks and rails.
	MsgID uint64
	// Offset is the byte offset of a KindData chunk in its message.
	Offset uint64
	// ChunkLen is the payload length of this network message.
	ChunkLen uint64
	// TotalLen is the total length of the logical message.
	TotalLen uint64
}

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("wire: short buffer")

// ErrCorrupt reports a structurally invalid message.
var ErrCorrupt = errors.New("wire: corrupt message")

// Encode appends the header to dst and returns the extended slice.
func (h *Header) Encode(dst []byte) []byte {
	var buf [HeaderSize]byte
	buf[0] = byte(h.Kind)
	buf[1] = h.Rail
	binary.LittleEndian.PutUint16(buf[2:], h.Count)
	binary.LittleEndian.PutUint32(buf[4:], h.Tag)
	binary.LittleEndian.PutUint32(buf[8:], h.Origin)
	binary.LittleEndian.PutUint64(buf[12:], h.MsgID)
	binary.LittleEndian.PutUint64(buf[20:], h.Offset)
	binary.LittleEndian.PutUint64(buf[28:], h.ChunkLen)
	binary.LittleEndian.PutUint64(buf[36:], h.TotalLen)
	return append(dst, buf[:]...)
}

// DecodeHeader parses a header from the front of b and returns it together
// with the remaining bytes.
func DecodeHeader(b []byte) (Header, []byte, error) {
	if len(b) < HeaderSize {
		return Header{}, nil, ErrShortBuffer
	}
	h := Header{
		Kind:     Kind(b[0]),
		Rail:     b[1],
		Count:    binary.LittleEndian.Uint16(b[2:]),
		Tag:      binary.LittleEndian.Uint32(b[4:]),
		Origin:   binary.LittleEndian.Uint32(b[8:]),
		MsgID:    binary.LittleEndian.Uint64(b[12:]),
		Offset:   binary.LittleEndian.Uint64(b[20:]),
		ChunkLen: binary.LittleEndian.Uint64(b[28:]),
		TotalLen: binary.LittleEndian.Uint64(b[36:]),
	}
	if h.Kind < KindEager || h.Kind > KindAck {
		return Header{}, nil, fmt.Errorf("%w: kind %d", ErrCorrupt, b[0])
	}
	return h, b[HeaderSize:], nil
}

// Packet is one logical packet inside an eager container.
type Packet struct {
	Tag     uint32
	MsgID   uint64
	Payload []byte
}

// entryHeaderSize is the per-packet framing inside an eager container.
const entryHeaderSize = 4 + 8 + 4

// EntrySize returns what one packet of n payload bytes adds to an eager
// container: a container of packets p1..pk encodes to HeaderSize plus the
// sum of their EntrySizes, which lets the optimizer fill a container up to
// the rail's eager limit without building the packet list first.
func EntrySize(n int) int { return entryHeaderSize + n }

// AggregateSize returns the encoded size of an eager container holding the
// given packets.
func AggregateSize(pkts []Packet) int {
	n := HeaderSize
	for _, p := range pkts {
		n += EntrySize(len(p.Payload))
	}
	return n
}

// EncodeEager builds an eager container carrying pkts on the given rail.
// The container id defaults to the packet's MsgID for single-packet
// containers; use EncodeEagerID when the container must be individually
// acknowledgeable (failover resend tracking) or trace-attributed
// (origin carried to the receiver).
func EncodeEager(rail uint8, pkts []Packet) []byte {
	var id uint64
	if len(pkts) == 1 {
		id = pkts[0].MsgID
	}
	return EncodeEagerID(0, id, rail, pkts)
}

// EncodeEagerID builds an eager container with an explicit origin node
// and container id carried in the header. The id identifies the
// container — not its packets — so the receiver can acknowledge it as
// one unit. It panics if pkts is empty or exceeds 65535 entries (the
// engine never aggregates that many).
func EncodeEagerID(origin uint32, id uint64, rail uint8, pkts []Packet) []byte {
	return AppendEagerID(make([]byte, 0, AggregateSize(pkts)), origin, id, rail, pkts)
}

// AppendEagerID is EncodeEagerID into caller-owned memory: the container
// is appended to dst (AggregateSize(pkts) bytes), so a sender that
// recycles its frames encodes without allocating.
func AppendEagerID(dst []byte, origin uint32, id uint64, rail uint8, pkts []Packet) []byte {
	if len(pkts) == 0 || len(pkts) > 0xFFFF {
		panic(fmt.Sprintf("wire: invalid eager packet count %d", len(pkts)))
	}
	var total uint64
	for _, p := range pkts {
		total += uint64(len(p.Payload))
	}
	h := Header{Kind: KindEager, Rail: rail, Count: uint16(len(pkts)), TotalLen: total, MsgID: id, Origin: origin}
	if len(pkts) == 1 {
		h.Tag = pkts[0].Tag
	}
	out := h.Encode(dst)
	var entry [entryHeaderSize]byte
	for _, p := range pkts {
		binary.LittleEndian.PutUint32(entry[0:], p.Tag)
		binary.LittleEndian.PutUint64(entry[4:], p.MsgID)
		binary.LittleEndian.PutUint32(entry[12:], uint32(len(p.Payload)))
		out = append(out, entry[:]...)
		out = append(out, p.Payload...)
	}
	return out
}

// EagerPackets walks the packets of an eager container in place, for a
// receiver that dispatches each packet as it goes and wants no packet
// list. Obtain one from ScanEager, which has already checked the framing,
// so Next cannot fail.
type EagerPackets struct {
	rest []byte
	left int
}

// ScanEager checks the framing of a whole eager container — kind, every
// entry within bounds, no trailing bytes — and returns its header and a
// walker over its packets. Payloads alias b.
func ScanEager(b []byte) (Header, EagerPackets, error) {
	h, rest, err := DecodeHeader(b)
	if err != nil {
		return Header{}, EagerPackets{}, err
	}
	if h.Kind != KindEager {
		return Header{}, EagerPackets{}, fmt.Errorf("%w: expected eager, got %v", ErrCorrupt, h.Kind)
	}
	it := EagerPackets{rest: rest, left: int(h.Count)}
	for i := 0; i < int(h.Count); i++ {
		if len(rest) < entryHeaderSize {
			return Header{}, EagerPackets{}, ErrShortBuffer
		}
		plen := int(binary.LittleEndian.Uint32(rest[12:]))
		if len(rest)-entryHeaderSize < plen {
			return Header{}, EagerPackets{}, ErrShortBuffer
		}
		rest = rest[entryHeaderSize+plen:]
	}
	if len(rest) != 0 {
		return Header{}, EagerPackets{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return h, it, nil
}

// Next returns the next packet, or false after the last one.
func (it *EagerPackets) Next() (Packet, bool) {
	if it.left == 0 {
		return Packet{}, false
	}
	plen := int(binary.LittleEndian.Uint32(it.rest[12:]))
	p := Packet{
		Tag:     binary.LittleEndian.Uint32(it.rest[0:]),
		MsgID:   binary.LittleEndian.Uint64(it.rest[4:]),
		Payload: it.rest[entryHeaderSize : entryHeaderSize+plen : entryHeaderSize+plen],
	}
	it.rest = it.rest[entryHeaderSize+plen:]
	it.left--
	return p, true
}

// DecodeEager parses an eager container produced by EncodeEager into a
// packet list (ScanEager without the list is the engine's form).
func DecodeEager(b []byte) ([]Packet, error) {
	h, it, err := ScanEager(b)
	if err != nil {
		return nil, err
	}
	pkts := make([]Packet, 0, h.Count)
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		pkts = append(pkts, p)
	}
	return pkts, nil
}

// AppendControl appends an RTS/CTS/Ack control message to dst: with a
// dst of HeaderSize capacity — a [HeaderSize]byte in the sender's
// scratch — the control message costs no allocation. Origin is the
// trace id's node half: an RTS carries the sender's own id, a CTS
// echoes the id of the node whose RTS it answers.
func AppendControl(dst []byte, kind Kind, rail uint8, origin, tag uint32, msgID, totalLen uint64) []byte {
	h := Header{Kind: kind, Rail: rail, Origin: origin, Tag: tag, MsgID: msgID, TotalLen: totalLen}
	return h.Encode(dst)
}

// AppendAck appends the acknowledgement for one transfer unit to dst
// (see AppendControl): an eager container (offset 0, msgID = container
// id) or a rendezvous/parallel chunk (msgID, offset). The sender
// retires the matching outstanding unit; unacknowledged units are
// re-planned when their rail dies. Origin echoes the id of the node the
// unit came from.
func AppendAck(dst []byte, rail uint8, origin uint32, msgID, offset uint64) []byte {
	h := Header{Kind: KindAck, Rail: rail, Origin: origin, MsgID: msgID, Offset: offset}
	return h.Encode(dst)
}

// EncodeDataHeader builds only the header of a chunk frame, appended to
// dst: the head of a head+body send whose body is the chunk itself,
// left where it lies. EncodeData(...) equals EncodeDataHeader(...)
// followed by the chunk bytes. Origin is the sending node's id (the
// transfer's trace id node half).
func EncodeDataHeader(dst []byte, rail uint8, origin, tag uint32, msgID uint64, offset, chunkLen, totalLen int) []byte {
	h := Header{
		Kind: KindData, Rail: rail, Origin: origin, Tag: tag, MsgID: msgID,
		Offset: uint64(offset), ChunkLen: uint64(chunkLen), TotalLen: uint64(totalLen),
	}
	return h.Encode(dst)
}

// EncodeData frames one chunk of a rendezvous transfer as one contiguous
// buffer (header, then a copy of the chunk).
func EncodeData(rail uint8, origin, tag uint32, msgID uint64, offset int, chunk []byte, totalLen int) []byte {
	out := EncodeDataHeader(make([]byte, 0, HeaderSize+len(chunk)), rail, origin, tag, msgID, offset, len(chunk), totalLen)
	return append(out, chunk...)
}

// DecodeData parses a chunk frame and returns its header and payload.
func DecodeData(b []byte) (Header, []byte, error) {
	h, rest, err := DecodeHeader(b)
	if err != nil {
		return Header{}, nil, err
	}
	if h.Kind != KindData {
		return Header{}, nil, fmt.Errorf("%w: expected data, got %v", ErrCorrupt, h.Kind)
	}
	if uint64(len(rest)) != h.ChunkLen {
		return Header{}, nil, fmt.Errorf("%w: chunk len %d != payload %d", ErrCorrupt, h.ChunkLen, len(rest))
	}
	return h, rest, nil
}
