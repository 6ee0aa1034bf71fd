package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Kind: KindData, Rail: 3, Count: 7, Tag: 0xDEADBEEF, Origin: 12,
		MsgID: 1234567890123, Offset: 1 << 40, ChunkLen: 42, TotalLen: 99,
	}
	enc := h.Encode(nil)
	if len(enc) != HeaderSize {
		t.Fatalf("encoded size %d, want %d", len(enc), HeaderSize)
	}
	got, rest, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if len(rest) != 0 {
		t.Fatalf("rest = %d bytes", len(rest))
	}
}

func TestDecodeHeaderShort(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, HeaderSize-1)); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestDecodeHeaderBadKind(t *testing.T) {
	b := make([]byte, HeaderSize)
	b[0] = 200
	if _, _, err := DecodeHeader(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindEager: "eager", KindRTS: "rts", KindCTS: "cts",
		KindData: "data", KindAck: "ack", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestEagerSinglePacket(t *testing.T) {
	pkts := []Packet{{Tag: 5, MsgID: 77, Payload: []byte("hello")}}
	enc := EncodeEager(2, pkts)
	if len(enc) != AggregateSize(pkts) {
		t.Fatalf("size %d, want %d", len(enc), AggregateSize(pkts))
	}
	h, _, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Tag != 5 || h.MsgID != 77 || h.Count != 1 || h.Rail != 2 {
		t.Fatalf("header %+v", h)
	}
	dec, err := DecodeEager(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 1 || dec[0].Tag != 5 || !bytes.Equal(dec[0].Payload, []byte("hello")) {
		t.Fatalf("decoded %+v", dec)
	}
}

func TestEagerAggregation(t *testing.T) {
	pkts := []Packet{
		{Tag: 1, MsgID: 10, Payload: []byte("aa")},
		{Tag: 2, MsgID: 11, Payload: nil},
		{Tag: 3, MsgID: 12, Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	enc := EncodeEager(0, pkts)
	dec, err := DecodeEager(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 {
		t.Fatalf("decoded %d packets", len(dec))
	}
	for i := range pkts {
		if dec[i].Tag != pkts[i].Tag || dec[i].MsgID != pkts[i].MsgID ||
			!bytes.Equal(dec[i].Payload, pkts[i].Payload) {
			t.Fatalf("packet %d mismatch: %+v vs %+v", i, dec[i], pkts[i])
		}
	}
}

func TestEncodeEagerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EncodeEager(0, nil)
}

func TestDecodeEagerRejectsTruncationAndTrailing(t *testing.T) {
	enc := EncodeEager(0, []Packet{{Tag: 1, Payload: []byte("abcdef")}})
	if _, err := DecodeEager(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated container accepted")
	}
	if _, err := DecodeEager(append(enc, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong kind
	ctl := AppendControl(nil, KindRTS, 0, 0, 1, 2, 3)
	if _, err := DecodeEager(ctl); err == nil {
		t.Fatal("control message decoded as eager")
	}
}

func TestControlRoundTrip(t *testing.T) {
	enc := AppendControl(nil, KindCTS, 1, 0, 9, 1000, 4096)
	h, rest, err := DecodeHeader(enc)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	if h.Kind != KindCTS || h.Tag != 9 || h.MsgID != 1000 || h.TotalLen != 4096 {
		t.Fatalf("header %+v", h)
	}
}

func TestDataRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 1000)
	enc := EncodeData(1, 0, 4, 88, 512, payload, 4096)
	h, got, err := DecodeData(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.Offset != 512 || h.TotalLen != 4096 || h.ChunkLen != 1000 {
		t.Fatalf("header %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeDataRejectsLengthMismatch(t *testing.T) {
	enc := EncodeData(0, 0, 0, 1, 0, []byte("abc"), 3)
	if _, _, err := DecodeData(enc[:len(enc)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	ctl := AppendControl(nil, KindAck, 0, 0, 0, 1, 0)
	if _, _, err := DecodeData(ctl); err == nil {
		t.Fatal("ack decoded as data")
	}
}

func TestIOVecLenAndGather(t *testing.T) {
	v := IOVec{[]byte("abc"), nil, []byte("de")}
	if v.Len() != 5 {
		t.Fatalf("Len = %d", v.Len())
	}
	if string(v.Gather()) != "abcde" {
		t.Fatalf("Gather = %q", v.Gather())
	}
}

func TestIOVecSlice(t *testing.T) {
	v := IOVec{[]byte("abc"), []byte("defg"), []byte("hi")}
	cases := []struct {
		off, n int
		want   string
	}{
		{0, 9, "abcdefghi"},
		{0, 0, ""},
		{1, 3, "bcd"},
		{3, 4, "defg"},
		{2, 6, "cdefgh"},
		{8, 1, "i"},
	}
	for _, c := range cases {
		if got := string(c2str(v.Slice(c.off, c.n))); got != c.want {
			t.Errorf("Slice(%d,%d) = %q, want %q", c.off, c.n, got, c.want)
		}
	}
}

func c2str(v IOVec) []byte { return v.Gather() }

func TestIOVecSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	IOVec{[]byte("ab")}.Slice(1, 5)
}

func TestIOVecSliceAliases(t *testing.T) {
	under := []byte("abcdef")
	v := IOVec{under}
	s := v.Slice(2, 2)
	s[0][0] = 'X'
	if under[2] != 'X' {
		t.Fatal("Slice must alias, not copy")
	}
}

func TestIOVecScatterInto(t *testing.T) {
	v := IOVec{make([]byte, 3), make([]byte, 4)}
	n := v.ScatterInto(2, []byte("XYZ"))
	if n != 3 {
		t.Fatalf("copied %d", n)
	}
	if string(v.Gather()) != "\x00\x00XYZ\x00\x00" {
		t.Fatalf("result %q", v.Gather())
	}
	// Overflow is clipped.
	if n := v.ScatterInto(6, []byte("abc")); n != 1 {
		t.Fatalf("overflow copy = %d, want 1", n)
	}
}

func TestReassemblyInOrder(t *testing.T) {
	buf := make([]byte, 10)
	r, err := NewReassembly(1, buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	done, err := r.Add(0, []byte("hello"))
	if err != nil || done {
		t.Fatalf("first add: done=%v err=%v", done, err)
	}
	done, err = r.Add(5, []byte("world"))
	if err != nil || !done {
		t.Fatalf("second add: done=%v err=%v", done, err)
	}
	if string(buf) != "helloworld" {
		t.Fatalf("buf = %q", buf)
	}
	if r.Chunks() != 2 || r.Received() != 10 {
		t.Fatalf("chunks=%d received=%d", r.Chunks(), r.Received())
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	buf := make([]byte, 6)
	r, _ := NewReassembly(2, buf, 6)
	if _, err := r.Add(3, []byte("def")); err != nil {
		t.Fatal(err)
	}
	done, err := r.Add(0, []byte("abc"))
	if err != nil || !done {
		t.Fatal("out-of-order completion failed")
	}
	if string(buf) != "abcdef" {
		t.Fatalf("buf = %q", buf)
	}
}

// Overlapping and duplicate chunks are idempotent — the failover path
// re-sends chunks whose rail died before the ack — while out-of-range
// chunks stay rejected.
func TestReassemblyToleratesOverlapRejectsRange(t *testing.T) {
	buf := make([]byte, 10)
	r, _ := NewReassembly(3, buf, 10)
	r.Add(0, []byte("aaaa"))
	if done, err := r.Add(2, []byte("aabb")); err != nil || done {
		t.Fatalf("overlap: done=%v err=%v", done, err)
	}
	if r.Received() != 6 {
		t.Fatalf("received %d after overlapping add, want 6", r.Received())
	}
	if done, err := r.Add(0, []byte("aaaa")); err != nil || done {
		t.Fatalf("exact duplicate: done=%v err=%v", done, err)
	}
	if r.Received() != 6 {
		t.Fatalf("received %d after duplicate, want 6", r.Received())
	}
	done, err := r.Add(6, []byte("cccc"))
	if err != nil || !done {
		t.Fatalf("final add: done=%v err=%v", done, err)
	}
	if string(buf) != "aaaabbcccc" {
		t.Fatalf("buf %q", buf)
	}
	if _, err := r.Add(8, []byte("ccc")); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := r.Add(-1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// A chunk bridging two disjoint received ranges counts only its fresh
// bytes (the resplit-after-resplit shape of double failover).
func TestReassemblyBridgingChunk(t *testing.T) {
	buf := make([]byte, 12)
	r, _ := NewReassembly(9, buf, 12)
	r.Add(0, []byte("abcd"))
	r.Add(8, []byte("ijkl"))
	if r.Received() != 8 {
		t.Fatalf("received %d", r.Received())
	}
	done, err := r.Add(2, []byte("cdefghij"))
	if err != nil || !done {
		t.Fatalf("bridge: done=%v err=%v", done, err)
	}
	if string(buf) != "abcdefghijkl" {
		t.Fatalf("buf %q", buf)
	}
}

func TestReassemblyBufferTooSmall(t *testing.T) {
	if _, err := NewReassembly(4, make([]byte, 3), 10); err == nil {
		t.Fatal("small buffer accepted")
	}
}

func TestReassemblyZeroLength(t *testing.T) {
	r, err := NewReassembly(5, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("zero-length message should be immediately done")
	}
}

// Property: eager encode/decode round-trips arbitrary packet sets.
func TestPropertyEagerRoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%16) + 1
		pkts := make([]Packet, n)
		for i := range pkts {
			payload := make([]byte, rng.Intn(512))
			rng.Read(payload)
			pkts[i] = Packet{Tag: rng.Uint32(), MsgID: rng.Uint64(), Payload: payload}
		}
		dec, err := DecodeEager(EncodeEager(uint8(rng.Intn(4)), pkts))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range pkts {
			if dec[i].Tag != pkts[i].Tag || dec[i].MsgID != pkts[i].MsgID ||
				!bytes.Equal(dec[i].Payload, pkts[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a chunk's head alone round-trips through DecodeHeader with
// nothing left over, and the contiguous frame is exactly that head
// followed by the chunk — so a head+body send and EncodeData put the
// same bytes on the wire.
func TestPropertyDataHeaderPlusChunkIsEncodeData(t *testing.T) {
	f := func(seed int64, rail uint8, origin, tag uint32, msgID uint64, off32, total32 uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		chunk := make([]byte, rng.Intn(2048))
		rng.Read(chunk)
		off, total := int(off32), int(off32)+len(chunk)+int(total32)
		head := EncodeDataHeader(nil, rail, origin, tag, msgID, off, len(chunk), total)
		h, rest, err := DecodeHeader(head)
		if err != nil || len(rest) != 0 || len(head) != HeaderSize {
			return false
		}
		want := Header{Kind: KindData, Rail: rail, Origin: origin, Tag: tag, MsgID: msgID,
			Offset: uint64(off), ChunkLen: uint64(len(chunk)), TotalLen: uint64(total)}
		if h != want {
			return false
		}
		// Appending to a caller's prefix leaves the prefix alone.
		if pre := EncodeDataHeader([]byte("pre"), rail, origin, tag, msgID, off, len(chunk), total); !bytes.Equal(pre[3:], head) {
			return false
		}
		return bytes.Equal(EncodeData(rail, origin, tag, msgID, off, chunk, total), append(head, chunk...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: reassembly from any permutation of any partition reconstructs
// the original buffer.
func TestPropertyReassemblyAnyPermutation(t *testing.T) {
	f := func(seed int64, size16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(size16%4096) + 1
		orig := make([]byte, size)
		rng.Read(orig)
		// Random partition into chunks.
		var offs []int
		for off := 0; off < size; {
			l := rng.Intn(size/2+1) + 1
			if off+l > size {
				l = size - off
			}
			offs = append(offs, off)
			off += l
		}
		type chunk struct {
			off  int
			data []byte
		}
		chunks := make([]chunk, len(offs))
		for i, off := range offs {
			end := size
			if i+1 < len(offs) {
				end = offs[i+1]
			}
			chunks[i] = chunk{off, orig[off:end]}
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		buf := make([]byte, size)
		r, err := NewReassembly(9, buf, size)
		if err != nil {
			return false
		}
		var done bool
		for _, c := range chunks {
			done, err = r.Add(c.off, c.data)
			if err != nil {
				return false
			}
		}
		return done && bytes.Equal(buf, orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: IOVec.Slice agrees with slicing the gathered buffer.
func TestPropertyIOVecSliceEquivalence(t *testing.T) {
	f := func(seed int64, off16, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var v IOVec
		for i := 0; i < rng.Intn(6)+1; i++ {
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			v = append(v, b)
		}
		total := v.Len()
		if total == 0 {
			return true
		}
		off := int(off16) % total
		n := int(n16) % (total - off + 1)
		want := v.Gather()[off : off+n]
		got := v.Slice(off, n).Gather()
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Missing reports exactly the uncovered gaps of a queried range, and
// Mark commits externally copied ranges — the two halves of the
// engine's parallel striped copy.
func TestReassemblyMissingAndMark(t *testing.T) {
	re, err := NewReassembly(1, make([]byte, 100), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Missing(10, 20); len(got) != 1 || got[0] != (Span{10, 30}) {
		t.Fatalf("fresh range Missing = %v", got)
	}
	if done, err := re.Mark(10, 20); err != nil || done {
		t.Fatalf("Mark(10,20) done=%v err=%v", done, err)
	}
	if re.Received() != 20 {
		t.Fatalf("received %d", re.Received())
	}
	// Query overlapping the covered middle: two gaps.
	if got := re.Missing(0, 50); len(got) != 2 || got[0] != (Span{0, 10}) || got[1] != (Span{30, 50}) {
		t.Fatalf("split Missing = %v", got)
	}
	// Fully covered range: no gaps.
	if got := re.Missing(12, 10); got != nil {
		t.Fatalf("covered Missing = %v", got)
	}
	// Out-of-range queries clamp; out-of-range Mark errors.
	if got := re.Missing(90, 20); len(got) != 1 || got[0] != (Span{90, 100}) {
		t.Fatalf("clamped Missing = %v", got)
	}
	if _, err := re.Mark(90, 20); err == nil {
		t.Fatal("oversized Mark accepted")
	}
	if re.Total() != 100 {
		t.Fatalf("total %d", re.Total())
	}
	// Duplicate Mark counts nothing twice.
	re.Mark(10, 20)
	if re.Received() != 20 {
		t.Fatalf("duplicate Mark inflated received to %d", re.Received())
	}
	re.Mark(0, 10)
	re.Mark(30, 70)
	if done := re.Done(); !done {
		t.Fatal("not done after full coverage")
	}
}

// Property: interleaving Add and Mark over random chunks converges to
// done exactly when every byte is covered, with received monotone.
func TestReassemblyMarkAddEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		total := rng.Intn(500) + 1
		ref := make([]byte, total)
		rng.Read(ref)
		buf := make([]byte, total)
		re, _ := NewReassembly(7, buf, total)
		for !re.Done() {
			off := rng.Intn(total)
			n := rng.Intn(total-off) + 1
			if rng.Intn(2) == 0 {
				if _, err := re.Add(off, ref[off:off+n]); err != nil {
					t.Fatal(err)
				}
			} else {
				// Mark path: the caller copies first, as the engine does.
				copy(buf[off:off+n], ref[off:off+n])
				if _, err := re.Mark(off, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if re.Received() != total {
			t.Fatalf("received %d of %d", re.Received(), total)
		}
		if !bytes.Equal(buf, ref) {
			t.Fatal("payload corrupted")
		}
	}
}
