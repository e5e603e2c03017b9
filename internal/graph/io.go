package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeListText writes one "u v" pair per line, the format shared by
// SNAP-style datasets. Lines are written in list order.
func WriteEdgeListText(w io.Writer, el *EdgeList) error {
	bw := bufio.NewWriter(w)
	for _, e := range el.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeListText parses "u v" pairs, one per line. Blank lines and
// lines starting with '#' or '%' (SNAP/Matrix-Market comments) are
// skipped. Vertex IDs must be non-negative and fit in int32.
func ReadEdgeListText(r io.Reader) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two vertex IDs, got %q", line, text)
		}
		u, err := parseVertex(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := parseVertex(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return FromEdges(edges), nil
}

func parseVertex(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex ID %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative vertex ID %d", v)
	}
	// The vertex count is maxID+1 and must itself fit in int32, so the
	// largest usable ID is MaxInt32-1.
	if v >= math.MaxInt32 {
		return 0, fmt.Errorf("vertex ID %d too large", v)
	}
	return int32(v), nil
}

// ReadEdgeListTextInSpace parses a text edge list and validates the
// result against the sampling space: reading a loopy or multigraph
// input is an explicit opt-in via the space argument, and input that
// does not satisfy the space's invariants (loops outside loopy cells,
// multi-edges outside multigraph cells) fails with a descriptive error
// instead of flowing silently into a sampler that assumes otherwise.
// ReadEdgeListText remains the permissive historical entry point.
func ReadEdgeListTextInSpace(r io.Reader, space Space) (*EdgeList, error) {
	el, err := ReadEdgeListText(r)
	if err != nil {
		return nil, err
	}
	if err := ValidateInSpace(el, space); err != nil {
		return nil, err
	}
	return el, nil
}

// ReadEdgeListBinaryInSpace is ReadEdgeListBinary plus the same
// explicit space-membership validation as ReadEdgeListTextInSpace.
func ReadEdgeListBinaryInSpace(r io.Reader, space Space) (*EdgeList, error) {
	el, err := ReadEdgeListBinary(r)
	if err != nil {
		return nil, err
	}
	if err := ValidateInSpace(el, space); err != nil {
		return nil, err
	}
	return el, nil
}

// binaryMagic identifies the library's binary edge-list format.
const binaryMagic = uint64(0x4e554c4c47524632) // "NULLGRF2"

// WriteEdgeListBinary writes a compact little-endian binary encoding:
// magic, n, m, then m packed 64-bit edges in list order. Roughly 8 bytes
// per edge versus ~14 for text, and parse-free to reload.
//
// Every underlying Write error — including short writes surfaced at the
// buffered flush — is propagated, so a caller that gets nil back knows
// all 24+8m bytes reached w (TestWriteEdgeListBinaryShortWrites
// enumerates every failure offset). Durability is the caller's job:
// CLI save paths route through internal/atomicfile, which fsyncs before
// renaming the file into place.
func WriteEdgeListBinary(w io.Writer, el *EdgeList) error {
	bw := bufio.NewWriter(w)
	var hdr [binaryHeaderBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(el.NumVertices))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(el.Edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, e := range el.Edges {
		// Preserve orientation (not canonicalized): list order and edge
		// orientation are MCMC state.
		binary.LittleEndian.PutUint64(buf, uint64(uint32(e.U))<<32|uint64(uint32(e.V)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryEdgeListSize returns the exact encoded size of an edge list in
// the binary format: the fixed header plus 8 bytes per edge. Servers
// use it to set Content-Length so clients can detect truncation at the
// transport layer too.
func BinaryEdgeListSize(el *EdgeList) int64 {
	return binaryHeaderBytes + 8*int64(len(el.Edges))
}

// binaryChunkEdges caps how many edges' worth of buffer is allocated on
// the strength of the header alone when the input size cannot be
// checked: a corrupt or hostile edge count then costs at most one chunk
// (512 KiB) before the short read surfaces, instead of an arbitrarily
// large up-front allocation.
const binaryChunkEdges = 1 << 16

// binaryHeaderBytes is the encoded size of (magic, n, m).
const binaryHeaderBytes = 24

// ReadEdgeListBinary reads the format written by WriteEdgeListBinary.
// The header's edge count is never trusted blindly: on seekable inputs
// it is validated against the bytes actually remaining, and on streams
// the edge buffer grows in bounded chunks as payload arrives, so a
// truncated or corrupt header fails with a clear error rather than an
// out-of-memory allocation.
func ReadEdgeListBinary(r io.Reader) (*EdgeList, error) {
	remaining := int64(-1)
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil {
				if _, err := s.Seek(cur, io.SeekStart); err == nil {
					remaining = end - cur
				}
			}
		}
	}
	br := bufio.NewReader(r)
	var magic, n, m uint64
	for _, dst := range []*uint64{&magic, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("graph: reading binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	// The vertex count must itself fit in int32, as in the text reader.
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
	}
	capHint := m
	if remaining >= 0 {
		payload := remaining - binaryHeaderBytes
		if payload < 0 || uint64(payload)/8 < m {
			return nil, fmt.Errorf("graph: header claims %d edges but only %d payload bytes remain", m, max(payload, 0))
		}
	} else if capHint > binaryChunkEdges {
		capHint = binaryChunkEdges
	}
	edges := make([]Edge, 0, capHint)
	buf := make([]byte, 8)
	for i := uint64(0); i < m; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: reading edge %d of %d: %w", i, m, err)
		}
		k := binary.LittleEndian.Uint64(buf)
		e := Edge{U: int32(uint32(k >> 32)), V: int32(uint32(k))}
		if e.U < 0 || e.V < 0 || int(e.U) >= int(n) || int(e.V) >= int(n) {
			return nil, fmt.Errorf("graph: edge %d endpoint out of range", i)
		}
		edges = append(edges, e)
	}
	return &EdgeList{Edges: edges, NumVertices: int(n)}, nil
}
