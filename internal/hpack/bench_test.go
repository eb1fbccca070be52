package hpack

import (
	"strconv"
	"strings"
	"testing"
)

// benchFields is a realistic response header list: a mix of static-table
// exact matches, static names with dynamic values, and custom fields.
var benchFields = []HeaderField{
	{Name: ":status", Value: "200"},
	{Name: "content-type", Value: "text/html; charset=utf-8"},
	{Name: "content-length", Value: "16384"},
	{Name: "server", Value: "h2scope-testbed/1.0"},
	{Name: "cache-control", Value: "max-age=3600, public"},
	{Name: "etag", Value: "\"5f2b8c-4000-h2scope\""},
	{Name: "x-experiment", Value: "multiplexing-k8"},
}

// BenchmarkHpackEncode measures steady-state block encoding with scratch
// reuse (AppendBlock into a recycled buffer).
func BenchmarkHpackEncode(b *testing.B) {
	enc := NewEncoder(PolicyIndexAll)
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = enc.AppendBlock(buf[:0], benchFields) // converge the dynamic table
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendBlock(buf[:0], benchFields)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkHpackDecode measures steady-state block decoding with scratch
// reuse (DecodeAppend into a recycled field slice).
func BenchmarkHpackDecode(b *testing.B) {
	enc := NewEncoder(PolicyIndexAll)
	dec := NewDecoder(DefaultDynamicTableSize)
	var block []byte
	var fields []HeaderField
	var err error
	for i := 0; i < 3; i++ { // converge both dynamic tables in lockstep
		block = enc.AppendBlock(block[:0], benchFields)
		if fields, err = dec.DecodeAppend(fields[:0], block); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fields, err = dec.DecodeAppend(fields[:0], block)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(fields) != len(benchFields) {
		b.Fatalf("decoded %d fields, want %d", len(fields), len(benchFields))
	}
}

// benchHuffmanInput is a Huffman-coded header value long enough to amortize
// per-call overhead: a plausible cookie-sized ASCII string.
var benchHuffmanInput = appendHuffman(nil,
	strings.Repeat("session=abc123def456; path=/; secure; httponly. ", 16))

// BenchmarkHpackHuffmanDecode compares the 4-bit table state machine against
// the reference pointer-chasing tree walk on identical input. The table/tree
// ratio is the headline number for the ISSUE-5 ≥2x acceptance criterion.
func BenchmarkHpackHuffmanDecode(b *testing.B) {
	var dst []byte
	b.Run("table", func(b *testing.B) {
		b.SetBytes(int64(len(benchHuffmanInput)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = decodeHuffman(dst[:0], benchHuffmanInput); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.SetBytes(int64(len(benchHuffmanInput)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if dst, err = decodeHuffmanTree(dst[:0], benchHuffmanInput); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHpackHuffmanEncode measures appendHuffman with buffer reuse.
func BenchmarkHpackHuffmanEncode(b *testing.B) {
	s := strings.Repeat("content-security-policy: default-src 'self'. ", 16)
	var dst []byte
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = appendHuffman(dst[:0], s)
	}
}

// TestHotPathAllocs proves the HPACK halves of the ISSUE-5 zero-alloc
// contract: once the dynamic tables and scratch buffers have converged,
// encoding and decoding a header block must not allocate.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting under -short")
	}

	t.Run("encode", func(t *testing.T) {
		enc := NewEncoder(PolicyIndexAll)
		var buf []byte
		for i := 0; i < 3; i++ {
			buf = enc.AppendBlock(buf[:0], benchFields)
		}
		allocs := testing.AllocsPerRun(200, func() {
			buf = enc.AppendBlock(buf[:0], benchFields)
		})
		if allocs != 0 {
			t.Errorf("steady-state AppendBlock: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("decode", func(t *testing.T) {
		enc := NewEncoder(PolicyIndexAll)
		dec := NewDecoder(DefaultDynamicTableSize)
		var block []byte
		var fields []HeaderField
		var err error
		for i := 0; i < 3; i++ {
			block = enc.AppendBlock(block[:0], benchFields)
			if fields, err = dec.DecodeAppend(fields[:0], block); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			fields, err = dec.DecodeAppend(fields[:0], block)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state DecodeAppend: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("decode-literals", func(t *testing.T) {
		// PolicyNoDynamicInsert re-sends every field as a literal, often
		// Huffman-coded: the path through the scratch buffer and the intern
		// cache. After warmup the strings are interned, so repeated blocks
		// decode without allocating.
		enc := NewEncoder(PolicyNoDynamicInsert)
		dec := NewDecoder(DefaultDynamicTableSize)
		block := enc.AppendBlock(nil, benchFields)
		var fields []HeaderField
		var err error
		for i := 0; i < 3; i++ {
			if fields, err = dec.DecodeAppend(fields[:0], block); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			fields, err = dec.DecodeAppend(fields[:0], block)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state literal DecodeAppend: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("insert-evict-churn", func(t *testing.T) {
		// The small_get tail-path shape: every response carries a fresh
		// content-length and etag, so every block inserts two literals
		// into a full table and evicts to make room. 256 values cycle,
		// several times what the 4 KiB table holds, so each comes back
		// as a miss; the decoder's intern cache holds all of them, which
		// leaves ring, index and scratch reuse as what is measured.
		const pool = 256
		var lengths, etags [pool]string
		for i := range lengths {
			lengths[i] = strconv.Itoa(1000 + 37*i)
			etags[i] = "\"5f2b8c-" + strconv.Itoa(100000+i) + "-h2scope\""
		}
		fields := append([]HeaderField(nil), benchFields...)
		enc := NewEncoder(PolicyIndexAll)
		dec := NewDecoder(DefaultDynamicTableSize)
		var block []byte
		var decoded []HeaderField
		var err error
		i := 0
		round := func() {
			fields[2].Value = lengths[i%pool]
			fields[5].Value = etags[i%pool]
			i++
			block = enc.AppendBlock(block[:0], fields)
			if decoded, err = dec.DecodeAppend(decoded[:0], block); err != nil {
				t.Fatal(err)
			}
		}
		for i < 4*pool {
			round()
		}
		inserted := enc.dt.inserted
		allocs := testing.AllocsPerRun(2000, round)
		if allocs != 0 {
			t.Errorf("AppendBlock+DecodeAppend under insert+evict churn: %.1f allocs/op, want 0", allocs)
		}
		// AllocsPerRun calls round once more than it counts, to warm up.
		// The repeating fields age out of the table too and come back, so
		// two per block is the floor.
		if got := enc.dt.inserted - inserted; got < 2*2001 {
			t.Errorf("%d insertions over 2001 blocks, want at least two per block", got)
		}
		if n := enc.dt.n; n >= pool/2 || n != dec.dt.n {
			t.Errorf("encoder table holds %d entries, decoder %d: want equal and full well below the %d-value cycle",
				n, dec.dt.n, pool)
		}
	})

	t.Run("huffman-decode", func(t *testing.T) {
		var dst []byte
		var err error
		dst, err = decodeHuffman(dst, benchHuffmanInput)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if dst, err = decodeHuffman(dst[:0], benchHuffmanInput); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state decodeHuffman: %.1f allocs/op, want 0", allocs)
		}
	})
}
