package wire

// IOVec is a gather/scatter vector: an ordered list of buffers treated as
// one logical contiguous payload, as supported by MX and Elan NICs.
type IOVec [][]byte

// Len returns the total byte length of the vector.
func (v IOVec) Len() int {
	n := 0
	for _, b := range v {
		n += len(b)
	}
	return n
}

// Gather copies the vector into a single contiguous buffer.
func (v IOVec) Gather() []byte {
	out := make([]byte, 0, v.Len())
	for _, b := range v {
		out = append(out, b...)
	}
	return out
}

// Slice returns the logical byte range [off, off+n) of the vector as a new
// IOVec that aliases the underlying buffers (no copy). It panics if the
// range is out of bounds.
func (v IOVec) Slice(off, n int) IOVec {
	if off < 0 || n < 0 || off+n > v.Len() {
		panic("wire: IOVec.Slice out of range")
	}
	var out IOVec
	for _, b := range v {
		if n == 0 {
			break
		}
		if off >= len(b) {
			off -= len(b)
			continue
		}
		take := len(b) - off
		if take > n {
			take = n
		}
		out = append(out, b[off:off+take])
		off = 0
		n -= take
	}
	return out
}

// ScatterInto copies src into the logical byte range starting at off.
// It returns the number of bytes copied (min of len(src) and remaining
// space).
func (v IOVec) ScatterInto(off int, src []byte) int {
	copied := 0
	for _, b := range v {
		if len(src) == 0 {
			break
		}
		if off >= len(b) {
			off -= len(b)
			continue
		}
		n := copy(b[off:], src)
		src = src[n:]
		copied += n
		off = 0
	}
	return copied
}
