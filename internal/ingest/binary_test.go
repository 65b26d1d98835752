package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"testing/iotest"
)

// binaryStreamRef is the binary.Read-based decoder BinaryStream.Next
// replaced, kept as its exact-equality oracle: same values bit for bit (NaN
// payloads included), same masks, same errors.
type binaryStreamRef struct {
	r    io.Reader
	dim  int
	line int
}

func newBinaryStreamRef(r io.Reader, dim int) *binaryStreamRef {
	return &binaryStreamRef{r: bufio.NewReader(r), dim: dim}
}

func (b *binaryStreamRef) Next() ([]float64, []bool, error) {
	b.line++
	vec := make([]float64, b.dim)
	if err := binary.Read(b.r, binary.LittleEndian, vec); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, &RecordError{b.line, "truncated record at end of stream"}
		}
		return nil, nil, err
	}
	var mask []bool
	for i, v := range vec {
		if math.IsNaN(v) {
			if mask == nil {
				mask = fullMask(b.dim)
			}
			mask[i] = false
		}
	}
	return vec, mask, nil
}

// randomRecords encodes n records of dimension d with NaN gaps (several
// payloads, including a signalling one), ±Inf, ±0 and subnormals mixed in,
// and appends a partial record of tail bytes.
func randomRecords(rng *rand.Rand, n, d, tail int) []byte {
	nans := []uint64{0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001}
	var buf bytes.Buffer
	row := make([]float64, d)
	for r := 0; r < n; r++ {
		gappy := rng.IntN(2) == 0
		for i := range row {
			switch u := rng.Float64(); {
			case gappy && u < 0.3:
				row[i] = math.Float64frombits(nans[rng.IntN(len(nans))])
			case u < 0.32:
				row[i] = []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324}[rng.IntN(4)]
			default:
				row[i] = rng.NormFloat64()
			}
		}
		binary.Write(&buf, binary.LittleEndian, row)
	}
	for i := 0; i < tail; i++ {
		buf.WriteByte(byte(rng.IntN(256)))
	}
	return buf.Bytes()
}

func sameRecord(t *testing.T, what string, gv []float64, gm []bool, gerr error, wv []float64, wm []bool, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() ||
		errors.Is(gerr, io.EOF) != errors.Is(werr, io.EOF) {
		t.Fatalf("%s: error %v, oracle %v", what, gerr, werr)
	}
	var grec, wrec *RecordError
	if errors.As(gerr, &grec) != errors.As(werr, &wrec) {
		t.Fatalf("%s: RecordError mismatch: %v vs oracle %v", what, gerr, werr)
	}
	if len(gv) != len(wv) || (gm == nil) != (wm == nil) || len(gm) != len(wm) {
		t.Fatalf("%s: shape %d/%v, oracle %d/%v", what, len(gv), gm == nil, len(wv), wm == nil)
	}
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("%s: value %d bits %#x, oracle %#x", what, i, math.Float64bits(gv[i]), math.Float64bits(wv[i]))
		}
	}
	for i := range gm {
		if gm[i] != wm[i] {
			t.Fatalf("%s: mask %d differs", what, i)
		}
	}
}

// TestBinaryStreamMatchesBinaryRead drives BinaryStream and the
// binary.Read oracle over the same bytes — clean ends, truncated tails of
// every length, odd and even d, NaN-masked rows, and readers that return
// one byte or half the request at a time — and requires identical records,
// masks and errors, through to the terminal io.EOF.
func TestBinaryStreamMatchesBinaryRead(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 62))
	wrap := map[string]func(io.Reader) io.Reader{
		"plain":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
	}
	for _, d := range []int{1, 2, 7, 8, 250} {
		for _, tail := range []int{0, 1, 7, 8*d - 1} {
			data := randomRecords(rng, 9, d, tail)
			for name, w := range wrap {
				got := NewBinaryStream(w(bytes.NewReader(data)), d)
				want := newBinaryStreamRef(w(bytes.NewReader(data)), d)
				for rec := 1; ; rec++ {
					gv, gm, gerr := got.Next()
					wv, wm, werr := want.Next()
					sameRecord(t, name, gv, gm, gerr, wv, wm, werr)
					if errors.Is(gerr, io.EOF) {
						break
					}
					if rec > 20 {
						t.Fatalf("d=%d tail=%d %s: stream did not end", d, tail, name)
					}
				}
			}
		}
	}
}

// TestBinaryStreamTransportError: a non-EOF reader error is passed through
// unchanged (not a RecordError), exactly like the binary.Read decoder.
func TestBinaryStreamTransportError(t *testing.T) {
	boom := errors.New("boom")
	data := randomRecords(rand.New(rand.NewPCG(1, 2)), 1, 4, 3)
	got := NewBinaryStream(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(boom)), 4)
	want := newBinaryStreamRef(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(boom)), 4)
	for i := 0; i < 2; i++ {
		gv, gm, gerr := got.Next()
		wv, wm, werr := want.Next()
		sameRecord(t, "transport", gv, gm, gerr, wv, wm, werr)
	}
	if _, _, err := got.Next(); !errors.Is(err, boom) {
		t.Fatalf("want the reader's error, got %v", err)
	}
}

// BenchmarkBinaryStreamNext measures one d = 250 gappy record through the
// reused-buffer decoder and the binary.Read oracle.
func BenchmarkBinaryStreamNext(b *testing.B) {
	const d, n = 250, 512
	data := randomRecords(rand.New(rand.NewPCG(3, 4)), n, d, 0)
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		r := bytes.NewReader(data)
		s := NewBinaryStream(r, d)
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				r.Reset(data)
				s = NewBinaryStream(r, d)
			}
			s.Next()
		}
	})
	b.Run("binary.Read", func(b *testing.B) {
		b.ReportAllocs()
		r := bytes.NewReader(data)
		var s Stream
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				r.Reset(data)
				s = newBinaryStreamRef(r, d)
			}
			s.Next()
		}
	})
}
