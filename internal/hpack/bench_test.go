package hpack

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// churnObjects is the size of the churn benchmarks' document tree, and
// churnSeqLen the length of their pre-drawn request sequence.
const (
	churnObjects = 1024
	churnSeqLen  = 1 << 14
)

// churnMix is small_get's header traffic on one connection: a Chrome-like
// 9-field request list whose :path (field 3) is rewritten per request with a
// Zipf(s=1) draw over churnObjects paths, and nghttpd's 9-field response
// list, prebuilt once per object from shared strings, whose content-length
// and etag differ from object to object.
type churnMix struct {
	req  []HeaderField
	resp [][]HeaderField // by object
	// paths names each object; seq is the drawn object sequence.
	paths []string
	seq   []int
}

func newChurnMix() *churnMix {
	rng := rand.New(rand.NewSource(1))
	cdf := make([]float64, churnObjects)
	var sum float64
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	m := &churnMix{
		req: []HeaderField{
			{Name: ":method", Value: "GET"},
			{Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "bench.example"},
			{Name: ":path", Value: "/"},
			{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/51.0.2704.103 Safari/537.36"},
			{Name: "accept", Value: "text/html,application/xhtml+xml,application/xml;q=0.9,image/webp,*/*;q=0.8"},
			{Name: "accept-encoding", Value: "gzip, deflate, sdch, br"},
			{Name: "accept-language", Value: "en-US,en;q=0.8"},
			{Name: "cache-control", Value: "max-age=0"},
		},
		seq: make([]int, churnSeqLen),
	}
	const (
		server = "nghttpd nghttp2/1.12.0"
		date   = "Tue, 05 Jul 2016 10:00:00 GMT"
		ctype  = "application/octet-stream"
	)
	for i := 0; i < churnObjects; i++ {
		m.paths = append(m.paths, fmt.Sprintf("/o/%08x", rng.Uint32()))
		// Log-uniform sizes over [64 B, 4 KiB], as the benchmark's site.
		size := int(math.Round(64 * math.Pow(64, rng.Float64())))
		m.resp = append(m.resp, []HeaderField{
			{Name: ":status", Value: "200"},
			{Name: "server", Value: server},
			{Name: "date", Value: date},
			{Name: "content-type", Value: ctype},
			{Name: "content-length", Value: strconv.Itoa(size)},
			{Name: "last-modified", Value: date},
			{Name: "etag", Value: strconv.Quote(strconv.FormatInt(int64(size)*2654435761, 36))},
			{Name: "accept-ranges", Value: "bytes"},
			{Name: "vary", Value: "accept-encoding"},
		})
	}
	for i := range m.seq {
		m.seq[i] = min(sort.SearchFloat64s(cdf, rng.Float64()*sum), churnObjects-1)
	}
	return m
}

// request returns the request list for the i-th request of the sequence.
func (m *churnMix) request(i int) []HeaderField {
	m.req[3].Value = m.paths[m.seq[i%churnSeqLen]]
	return m.req
}

// response returns the response list for the i-th request of the sequence.
func (m *churnMix) response(i int) []HeaderField { return m.resp[m.seq[i%churnSeqLen]] }

// BenchmarkHpackEncodeChurn encodes one small_get request and its response
// per op under PolicyIndexAll into 4 KiB tables: the request side repeats
// all but :path, and every response inserts a content-length and an etag
// into a full table, so the insert and evict path runs alongside the hits.
func BenchmarkHpackEncodeChurn(b *testing.B) {
	m := newChurnMix()
	reqEnc, respEnc := NewEncoder(PolicyIndexAll), NewEncoder(PolicyIndexAll)
	var buf []byte
	for i := 0; i < churnSeqLen; i++ { // warm tables and scratch
		buf = reqEnc.AppendBlock(buf[:0], m.request(i))
		buf = respEnc.AppendBlock(buf[:0], m.response(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = reqEnc.AppendBlock(buf[:0], m.request(i))
		buf = respEnc.AppendBlock(buf[:0], m.response(i))
	}
}

// BenchmarkHpackDecodeChurn decodes what BenchmarkHpackEncodeChurn's
// encoders emit, one request block and one response block per op. The
// blocks are encoded up front from empty tables, so each pass over them
// starts the decoders' tables empty as well (outside the timer).
func BenchmarkHpackDecodeChurn(b *testing.B) {
	m := newChurnMix()
	reqEnc, respEnc := NewEncoder(PolicyIndexAll), NewEncoder(PolicyIndexAll)
	reqBlocks, respBlocks := make([][]byte, churnSeqLen), make([][]byte, churnSeqLen)
	for i := range reqBlocks {
		reqBlocks[i] = reqEnc.AppendBlock(nil, m.request(i))
		respBlocks[i] = respEnc.AppendBlock(nil, m.response(i))
	}
	reqDec, respDec := NewDecoder(DefaultDynamicTableSize), NewDecoder(DefaultDynamicTableSize)
	var fields []HeaderField
	var err error
	decode := func(i int) {
		if fields, err = reqDec.DecodeAppend(fields[:0], reqBlocks[i]); err != nil {
			b.Fatal(err)
		}
		if fields, err = respDec.DecodeAppend(fields[:0], respBlocks[i]); err != nil {
			b.Fatal(err)
		}
	}
	for i := range reqBlocks { // warm the intern caches and the rings
		decode(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % churnSeqLen
		if k == 0 {
			b.StopTimer()
			reqDec.dt.evictTo(0)
			respDec.dt.evictTo(0)
			b.StartTimer()
		}
		decode(k)
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

	t.Run("small-get-mix", func(t *testing.T) {
		// The churn benchmarks' traffic: memo hits on most fields, a
		// :path that hits or misses, and inserts that evict on every
		// response, all through both encoders and both decoders.
		m := newChurnMix()
		reqEnc, respEnc := NewEncoder(PolicyIndexAll), NewEncoder(PolicyIndexAll)
		reqDec, respDec := NewDecoder(DefaultDynamicTableSize), NewDecoder(DefaultDynamicTableSize)
		var block []byte
		var fields []HeaderField
		var err error
		i := 0
		round := func() {
			block = reqEnc.AppendBlock(block[:0], m.request(i))
			if fields, err = reqDec.DecodeAppend(fields[:0], block); err != nil {
				t.Fatal(err)
			}
			block = respEnc.AppendBlock(block[:0], m.response(i))
			if fields, err = respDec.DecodeAppend(fields[:0], block); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < churnSeqLen {
			round()
		}
		if allocs := testing.AllocsPerRun(2000, round); allocs != 0 {
			t.Errorf("small_get header mix: %.1f allocs/op, want 0", allocs)
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
