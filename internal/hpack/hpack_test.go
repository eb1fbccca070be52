package hpack

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// --- Integer primitive (RFC 7541 C.1) ---

func TestVarIntRFCExamples(t *testing.T) {
	tests := []struct {
		name   string
		prefix uint8
		first  byte
		n      uint64
		want   []byte
	}{
		{"C.1.1 ten with 5-bit prefix", 5, 0, 10, []byte{0x0a}},
		{"C.1.2 1337 with 5-bit prefix", 5, 0, 1337, []byte{0x1f, 0x9a, 0x0a}},
		{"C.1.3 42 with 8-bit prefix", 8, 0, 42, []byte{0x2a}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := appendVarInt(nil, tt.prefix, tt.first, tt.n)
			if !bytes.Equal(got, tt.want) {
				t.Errorf("appendVarInt = %x, want %x", got, tt.want)
			}
			back, rest, err := readVarInt(got, tt.prefix)
			if err != nil || back != tt.n || len(rest) != 0 {
				t.Errorf("readVarInt = %d, rest %x, err %v", back, rest, err)
			}
		})
	}
}

func TestVarIntRoundTripProperty(t *testing.T) {
	prop := func(n uint64, prefix uint8) bool {
		p := prefix%8 + 1
		n %= 1 << 40
		enc := appendVarInt(nil, p, 0, n)
		got, rest, err := readVarInt(enc, p)
		return err == nil && got == n && len(rest) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestVarIntTruncated(t *testing.T) {
	if _, _, err := readVarInt(nil, 5); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, _, err := readVarInt([]byte{0x1f, 0x80}, 5); err == nil {
		t.Error("truncated continuation accepted")
	}
	// 10 continuation bytes overflow the 62-bit guard.
	over := []byte{0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readVarInt(over, 5); err == nil {
		t.Error("overflowing integer accepted")
	}
}

// --- Huffman (RFC 7541 C.4 string vectors) ---

func TestHuffmanRFCVectors(t *testing.T) {
	tests := []struct {
		raw string
		hex string
	}{
		{"www.example.com", "f1e3 c2e5 f23a 6ba0 ab90 f4ff"},
		{"no-cache", "a8eb 1064 9cbf"},
		{"custom-key", "25a8 49e9 5ba9 7d7f"},
		{"custom-value", "25a8 49e9 5bb8 e8b4 bf"},
		{"302", "6402"},
		{"private", "aec3 771a 4b"},
		{"Mon, 21 Oct 2013 20:13:21 GMT", "d07a be94 1054 d444 a820 0595 040b 8166 e082 a62d 1bff"},
		{"https://www.example.com", "9d29 ad17 1863 c78f 0b97 c8e9 ae82 ae43 d3"},
	}
	for _, tt := range tests {
		t.Run(tt.raw, func(t *testing.T) {
			want := mustHex(t, tt.hex)
			got := appendHuffman(nil, tt.raw)
			if !bytes.Equal(got, want) {
				t.Errorf("appendHuffman(%q) = %x, want %x", tt.raw, got, want)
			}
			if n := huffmanEncodedLen(tt.raw); n != len(want) {
				t.Errorf("huffmanEncodedLen(%q) = %d, want %d", tt.raw, n, len(want))
			}
			back, err := decodeHuffman(nil, want)
			if err != nil {
				t.Fatalf("decodeHuffman: %v", err)
			}
			if string(back) != tt.raw {
				t.Errorf("decodeHuffman = %q, want %q", back, tt.raw)
			}
		})
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	prop := func(data []byte) bool {
		enc := appendHuffman(nil, string(data))
		dec, err := decodeHuffman(nil, enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanBadPadding(t *testing.T) {
	// "0" encodes to 5 bits 00000; padded with 111 → 0x07. A full 0x00 octet
	// would decode "0" then leave 000 pending, which is invalid padding.
	if _, err := decodeHuffman(nil, []byte{0x00}); err == nil {
		t.Error("zero padding accepted")
	}
	// A lone 0xff octet is a valid EOS prefix (8 bits would exceed 7)...
	// actually 8 one-bits exceed the 7-bit maximum padding, so it must fail.
	if _, err := decodeHuffman(nil, []byte{0xff}); err == nil {
		t.Error("8-bit EOS prefix accepted, want error (padding must be < 8 bits)")
	}
	// Valid: "1" = 00001 (5 bits) + 3 one-bits padding = 0000 1111 = 0x0f.
	got, err := decodeHuffman(nil, []byte{0x0f})
	if err != nil || string(got) != "1" {
		t.Errorf("decodeHuffman(0x0f) = %q, %v; want \"1\", nil", got, err)
	}
}

// --- Dynamic table ---

func TestDynamicTableAddEvict(t *testing.T) {
	dt := newDynamicTable(100)
	a := HeaderField{Name: "aaaa", Value: "bbbb"} // size 40
	b := HeaderField{Name: "cccc", Value: "dddd"} // size 40
	c := HeaderField{Name: "eeee", Value: "ffff"} // size 40
	dt.add(a)
	dt.add(b)
	if dt.n != 2 || dt.size != 80 {
		t.Fatalf("len=%d size=%d, want 2/80", dt.n, dt.size)
	}
	dt.add(c) // evicts a
	if dt.n != 2 {
		t.Fatalf("len=%d after eviction, want 2", dt.n)
	}
	if hf, ok := dt.at(1); !ok || hf != c {
		t.Errorf("at(1) = %+v, want newest %+v", hf, c)
	}
	if hf, ok := dt.at(2); !ok || hf != b {
		t.Errorf("at(2) = %+v, want %+v", hf, b)
	}
	if _, ok := dt.at(3); ok {
		t.Error("at(3) found evicted entry")
	}
}

func TestDynamicTableOversizeEntryClearsTable(t *testing.T) {
	dt := newDynamicTable(50)
	dt.add(HeaderField{Name: "a", Value: "b"})
	dt.add(HeaderField{Name: strings.Repeat("x", 100), Value: "y"})
	if dt.n != 0 || dt.size != 0 {
		t.Errorf("len=%d size=%d after oversize add, want 0/0", dt.n, dt.size)
	}
}

func TestDynamicTableSetMaxSizeEvicts(t *testing.T) {
	dt := newDynamicTable(200)
	for i := 0; i < 4; i++ {
		dt.add(HeaderField{Name: "name", Value: "valu"}) // 40 each
	}
	dt.setMaxSize(80)
	if dt.n != 2 {
		t.Errorf("len=%d after shrink, want 2", dt.n)
	}
}

func TestStaticTableLookups(t *testing.T) {
	if staticTableLen != 61 {
		t.Fatalf("staticTableLen = %d, want 61", staticTableLen)
	}
	dt := newDynamicTable(4096)
	hf, ok := dt.lookup(2)
	if !ok || hf.Name != ":method" || hf.Value != "GET" {
		t.Errorf("lookup(2) = %+v, want :method GET", hf)
	}
	hf, ok = dt.lookup(54)
	if !ok || hf.Name != "server" {
		t.Errorf("lookup(54) = %+v, want server", hf)
	}
	if _, ok = dt.lookup(62); ok {
		t.Error("lookup(62) on empty dynamic table succeeded")
	}
	if _, ok = dt.lookup(0); ok {
		t.Error("lookup(0) succeeded")
	}
}

// --- Encoder/decoder: RFC 7541 C.3 (plain) and C.4 (Huffman) request series ---

func requestFields(scheme, path, authority string, extra ...HeaderField) []HeaderField {
	fields := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: scheme},
		{Name: ":path", Value: path},
		{Name: ":authority", Value: authority},
	}
	return append(fields, extra...)
}

func TestEncoderRFCC4RequestSeries(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)

	got1 := enc.AppendBlock(nil, requestFields("http", "/", "www.example.com"))
	want1 := mustHex(t, "8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff")
	if !bytes.Equal(got1, want1) {
		t.Fatalf("first request = %x, want %x", got1, want1)
	}

	got2 := enc.AppendBlock(nil, requestFields("http", "/", "www.example.com",
		HeaderField{Name: "cache-control", Value: "no-cache"}))
	want2 := mustHex(t, "8286 84be 5886 a8eb 1064 9cbf")
	if !bytes.Equal(got2, want2) {
		t.Fatalf("second request = %x, want %x", got2, want2)
	}

	got3 := enc.AppendBlock(nil, requestFields("https", "/index.html", "www.example.com",
		HeaderField{Name: "custom-key", Value: "custom-value"}))
	want3 := mustHex(t, "8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf")
	if !bytes.Equal(got3, want3) {
		t.Fatalf("third request = %x, want %x", got3, want3)
	}

	if enc.dt.n != 3 {
		t.Errorf("encoder dynamic table has %d entries, want 3", enc.dt.n)
	}
}

func TestDecoderRFCC3PlainRequestSeries(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)

	fields, err := dec.DecodeFull(mustHex(t,
		"8286 8441 0f77 7777 2e65 7861 6d70 6c65 2e63 6f6d"))
	if err != nil {
		t.Fatalf("C.3.1 decode: %v", err)
	}
	want := requestFields("http", "/", "www.example.com")
	if !reflect.DeepEqual(fields, want) {
		t.Errorf("C.3.1 = %+v, want %+v", fields, want)
	}

	fields, err = dec.DecodeFull(mustHex(t, "8286 84be 5808 6e6f 2d63 6163 6865"))
	if err != nil {
		t.Fatalf("C.3.2 decode: %v", err)
	}
	want = requestFields("http", "/", "www.example.com",
		HeaderField{Name: "cache-control", Value: "no-cache"})
	if !reflect.DeepEqual(fields, want) {
		t.Errorf("C.3.2 = %+v, want %+v", fields, want)
	}

	fields, err = dec.DecodeFull(mustHex(t,
		"8287 85bf 400a 6375 7374 6f6d 2d6b 6579 0c63 7573 746f 6d2d 7661 6c75 65"))
	if err != nil {
		t.Fatalf("C.3.3 decode: %v", err)
	}
	want = requestFields("https", "/index.html", "www.example.com",
		HeaderField{Name: "custom-key", Value: "custom-value"})
	if !reflect.DeepEqual(fields, want) {
		t.Errorf("C.3.3 = %+v, want %+v", fields, want)
	}
	if dec.dt.n != 3 {
		t.Errorf("decoder dynamic table has %d entries, want 3", dec.dt.n)
	}
}

func TestDecoderRFCC6ResponseSeriesWithEviction(t *testing.T) {
	// RFC 7541 C.6: responses over a 256-byte dynamic table, Huffman coded.
	dec := NewDecoder(256)

	f1, err := dec.DecodeFull(mustHex(t,
		"4882 6402 5885 aec3 771a 4b61 96d0 7abe 9410 54d4 44a8 2005 9504 0b81 66e0 82a6 2d1b ff6e 919d 29ad 1718 63c7 8f0b 97c8 e9ae 82ae 43d3"))
	if err != nil {
		t.Fatalf("C.6.1 decode: %v", err)
	}
	want1 := []HeaderField{
		{Name: ":status", Value: "302"},
		{Name: "cache-control", Value: "private"},
		{Name: "date", Value: "Mon, 21 Oct 2013 20:13:21 GMT"},
		{Name: "location", Value: "https://www.example.com"},
	}
	if !reflect.DeepEqual(f1, want1) {
		t.Errorf("C.6.1 = %+v, want %+v", f1, want1)
	}
	if dec.dt.n != 4 {
		t.Fatalf("after C.6.1 table has %d entries, want 4", dec.dt.n)
	}

	// C.6.2: ":status: 307" evicts the oldest entry.
	f2, err := dec.DecodeFull(mustHex(t, "4883 640e ffc1 c0bf"))
	if err != nil {
		t.Fatalf("C.6.2 decode: %v", err)
	}
	if f2[0].Value != "307" {
		t.Errorf("C.6.2 status = %q, want 307", f2[0].Value)
	}
	if dec.dt.n != 4 {
		t.Errorf("after C.6.2 table has %d entries, want 4", dec.dt.n)
	}
}

func TestEncodeDecodeRoundTripWithSensitive(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)
	dec := NewDecoder(DefaultDynamicTableSize)
	fields := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "server", Value: "h2repro/1.0"},
		{Name: "authorization", Value: "Bearer secret-token", Sensitive: true},
		{Name: "x-custom", Value: "v1"},
	}
	for round := 0; round < 3; round++ {
		block := enc.AppendBlock(nil, fields)
		got, err := dec.DecodeFull(block)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Fatalf("round %d: got %+v, want %+v", round, got, fields)
		}
	}
	// Sensitive field must never enter either dynamic table.
	for i := 0; i < enc.dt.n; i++ {
		if hf, ok := enc.dt.at(uint64(i + 1)); ok && hf.Name == "authorization" {
			t.Error("sensitive field stored in encoder dynamic table")
		}
	}
}

func TestPolicyNoDynamicInsertYieldsConstantBlockSize(t *testing.T) {
	// The crux of the paper's Figs. 4/5: Nginx-style encoders emit the same
	// bytes for every identical response (r ≈ 1), while indexing encoders
	// shrink dramatically after the first block.
	response := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "server", Value: "nginx/1.9.15"},
		{Name: "content-type", Value: "text/html; charset=utf-8"},
		{Name: "last-modified", Value: "Tue, 05 Jul 2016 10:00:00 GMT"},
		{Name: "etag", Value: "\"57838f70-264\""},
	}

	noIdx := NewEncoder(PolicyNoDynamicInsert)
	first := len(noIdx.AppendBlock(nil, response))
	second := len(noIdx.AppendBlock(nil, response))
	if first != second {
		t.Errorf("PolicyNoDynamicInsert sizes differ: %d then %d", first, second)
	}
	if noIdx.dt.n != 0 {
		t.Errorf("PolicyNoDynamicInsert inserted %d entries", noIdx.dt.n)
	}

	idx := NewEncoder(PolicyIndexAll)
	firstIdx := len(idx.AppendBlock(nil, response))
	secondIdx := len(idx.AppendBlock(nil, response))
	if secondIdx >= firstIdx/2 {
		t.Errorf("PolicyIndexAll second block %d not much smaller than first %d", secondIdx, firstIdx)
	}
}

func TestDecoderRejectsBadIndex(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	if _, err := dec.DecodeFull([]byte{0xff, 0xff, 0x7f}); err == nil {
		t.Error("huge index accepted")
	}
	if _, err := dec.DecodeFull([]byte{0x80}); err == nil {
		t.Error("index 0 accepted")
	}
}

// insertBlock is a header block of n literals with incremental indexing,
// x-0: v to x-<n-1>: v, each under a new name: after it, dynamic index 1
// (wire index 62) is x-<n-1> and dynamic index n is x-0.
func insertBlock(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = appendString(append(b, 0x40), "x-"+strconv.Itoa(i))
		b = appendString(b, "v")
	}
	return b
}

// indexedBlock is a block of one indexed field per index.
func indexedBlock(indices ...uint64) []byte {
	var b []byte
	for _, i := range indices {
		b = appendVarInt(b, 7, 0x80, i)
	}
	return b
}

// TestDecoderIndexedBoundaries walks the edges of the decoder's inline path
// for one-octet indices (1-126): the ends of the static table, the newest
// and oldest dynamic entries, the first index past them, and the first
// two-octet index, each against what the table holds; and it checks that an
// indexed-only block still trips the header list bound.
func TestDecoderIndexedBoundaries(t *testing.T) {
	dyn := func(i int) HeaderField { return HeaderField{Name: "x-" + strconv.Itoa(i), Value: "v"} }
	for _, tc := range []struct {
		name    string
		entries int
		index   uint64
		want    HeaderField // zero: ErrInvalidIndex
	}{
		{"zero", 3, 0, HeaderField{}},
		{"first-static", 3, 1, HeaderField{Name: ":authority"}},
		{"last-static", 3, 61, HeaderField{Name: "www-authenticate"}},
		{"newest-dynamic", 3, 62, dyn(2)},
		{"oldest-dynamic", 3, 64, dyn(0)},
		{"past-oldest", 3, 65, HeaderField{}},
		{"past-empty-table", 0, 62, HeaderField{}},
		{"last-one-octet", 70, 126, dyn(5)},
		{"first-two-octet", 70, 127, dyn(4)},
		{"oldest-two-octet", 70, 131, dyn(0)},
		{"past-oldest-two-octet", 70, 132, HeaderField{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(DefaultDynamicTableSize)
			if _, err := dec.DecodeFull(insertBlock(tc.entries)); err != nil {
				t.Fatal(err)
			}
			fields, err := dec.DecodeFull(indexedBlock(tc.index))
			if tc.want == (HeaderField{}) {
				if !errors.Is(err, ErrInvalidIndex) {
					t.Fatalf("index %d: %v, %v; want ErrInvalidIndex", tc.index, fields, err)
				}
				return
			}
			if err != nil || len(fields) != 1 || fields[0] != tc.want {
				t.Fatalf("index %d: %v, %v; want %v", tc.index, fields, err, tc.want)
			}
		})
	}

	t.Run("header-list-bound", func(t *testing.T) {
		dec := NewDecoder(DefaultDynamicTableSize)
		if _, err := dec.DecodeFull(insertBlock(3)); err != nil {
			t.Fatal(err)
		}
		// :method GET is 42 octets and x-2: v 37 by RFC 7541's measure.
		dec.SetMaxHeaderListSize(42 + 2*37)
		if fields, err := dec.DecodeFull(indexedBlock(2, 62, 62)); err != nil || len(fields) != 3 {
			t.Fatalf("block at the bound: %v, %v", fields, err)
		}
		for _, block := range [][]byte{indexedBlock(2, 62, 62, 62), indexedBlock(2, 2, 2)} {
			if _, err := dec.DecodeFull(block); !errors.Is(err, ErrHeaderListSize) {
				t.Errorf("% x past the bound: %v, want ErrHeaderListSize", block, err)
			}
		}
	})
}

// TestIndexedPairSlotsKeepProbeRuns drives the encoder's pair slots with
// hashes drawn from a handful of values, two of them at the end of the slot
// array, so probe runs collide, merge and wrap around; after every insert
// and remove each filed entry must still be reachable from its home slot
// before an empty one.
func TestIndexedPairSlotsKeepProbeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hashes := []uint64{0, 1, 2, 5, 14, 15, 31, 63}
	ix := &reverseIndex{}
	filed := map[uint64]uint64{} // seq → hash
	var seq uint64
	for step := 0; step < 20000; step++ {
		if len(filed) > 0 && (rng.Intn(2) == 0 || len(filed) > 40) {
			for s, h := range filed { // map order: a random filed entry
				ix.remove(h, s)
				delete(filed, s)
				break
			}
		} else {
			seq++
			h := hashes[rng.Intn(len(hashes))]
			ix.insert(h, seq)
			filed[seq] = h
		}
		if ix.pairs != len(filed) {
			t.Fatalf("step %d: %d pairs counted, %d filed", step, ix.pairs, len(filed))
		}
		mask := uint64(len(ix.slots) - 1)
		for s, h := range filed {
			i := h & mask
			for ix.slots[i].seq != s {
				if ix.slots[i].seq == 0 {
					t.Fatalf("step %d: entry %d (hash %d) unreachable from its home slot", step, s, h)
				}
				i = (i + 1) & mask
			}
		}
	}
}

func TestDecoderRejectsLateTableSizeUpdate(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	// Indexed :method GET (0x82) followed by a size update (0x20).
	if _, err := dec.DecodeFull([]byte{0x82, 0x20}); err == nil {
		t.Error("size update after field accepted")
	}
}

func TestDecoderRejectsOversizeTableUpdate(t *testing.T) {
	dec := NewDecoder(4096)
	block := appendVarInt(nil, 5, 0x20, 8192)
	if _, err := dec.DecodeFull(block); err == nil {
		t.Error("table size update above SETTINGS limit accepted")
	}
}

func TestEncoderTableSizeUpdateEmitted(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)
	enc.SetMaxDynamicTableSize(0)
	block := enc.AppendBlock(nil, []HeaderField{{Name: ":method", Value: "GET"}})
	if len(block) == 0 || block[0] != 0x20 {
		t.Fatalf("block = %x, want leading size-update 0x20", block)
	}
	dec := NewDecoder(DefaultDynamicTableSize)
	if _, err := dec.DecodeFull(block); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.dt.maxSize != 0 {
		t.Errorf("decoder table max = %d, want 0", dec.dt.maxSize)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)
	dec := NewDecoder(DefaultDynamicTableSize)
	prop := func(names, values [][]byte) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		if n > 8 {
			n = 8
		}
		fields := make([]HeaderField, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, HeaderField{Name: string(names[i]), Value: string(values[i])})
		}
		block := enc.AppendBlock(nil, fields)
		got, err := dec.DecodeFull(block)
		if err != nil {
			return false
		}
		if len(fields) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, fields)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFieldSizeAndString(t *testing.T) {
	hf := HeaderField{Name: "ab", Value: "cdef"}
	if hf.Size() != 38 {
		t.Errorf("Size() = %d, want 38", hf.Size())
	}
	if s := hf.String(); s != "ab: cdef" {
		t.Errorf("String() = %q", s)
	}
	sens := HeaderField{Name: "a", Value: "b", Sensitive: true}
	if s := sens.String(); !strings.Contains(s, "sensitive") {
		t.Errorf("String() = %q, want sensitive marker", s)
	}
}

func TestSensitiveFieldUsesNeverIndexedRepresentation(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)
	block := enc.AppendBlock(nil, []HeaderField{
		{Name: "authorization", Value: "secret", Sensitive: true},
	})
	// RFC 7541 section 6.2.3: never-indexed literals start with 0001xxxx.
	if len(block) == 0 || block[0]&0xf0 != 0x10 {
		t.Fatalf("block starts with 0x%02x, want never-indexed prefix 0x1x", block[0])
	}
	if enc.dt.n != 0 {
		t.Error("sensitive field entered the dynamic table")
	}
	// The flag survives a decode.
	dec := NewDecoder(DefaultDynamicTableSize)
	fields, err := dec.DecodeFull(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 1 || !fields[0].Sensitive {
		t.Errorf("decoded = %+v, want sensitive", fields)
	}
	if dec.dt.n != 0 {
		t.Error("decoder indexed a never-indexed field")
	}
}

func TestLiteralNameFromDynamicTable(t *testing.T) {
	// Second occurrence of a custom name with a different value must
	// reference the name by dynamic index, and the decoder must resolve it.
	enc := NewEncoder(PolicyIndexAll)
	dec := NewDecoder(DefaultDynamicTableSize)
	b1 := enc.AppendBlock(nil, []HeaderField{{Name: "x-trace-id", Value: "one"}})
	if _, err := dec.DecodeFull(b1); err != nil {
		t.Fatal(err)
	}
	b2 := enc.AppendBlock(nil, []HeaderField{{Name: "x-trace-id", Value: "two"}})
	if len(b2) >= len(b1) {
		t.Errorf("second block (%d bytes) not smaller than first (%d): name not reused", len(b2), len(b1))
	}
	fields, err := dec.DecodeFull(b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 1 || fields[0].Name != "x-trace-id" || fields[0].Value != "two" {
		t.Errorf("decoded = %+v", fields)
	}
}

func TestPartialEncoderFractionBoundsAndDeterminism(t *testing.T) {
	fields := []HeaderField{
		{Name: "alpha", Value: "1"}, {Name: "bravo", Value: "2"},
		{Name: "charlie", Value: "3"}, {Name: "delta", Value: "4"},
	}
	zero := NewPartialEncoder(-1, 0) // clamps to 0: nothing indexed
	zero.AppendBlock(nil, fields)
	if zero.dt.n != 0 {
		t.Errorf("fraction<=0 indexed %d entries", zero.dt.n)
	}
	full := NewPartialEncoder(2, 0) // clamps to 1: everything indexed
	full.AppendBlock(nil, fields)
	if full.dt.n != len(fields) {
		t.Errorf("fraction>=1 indexed %d entries, want %d", full.dt.n, len(fields))
	}
	// Same salt → same subset; different salt → (very likely) different.
	a := NewPartialEncoder(0.5, 42)
	b := NewPartialEncoder(0.5, 42)
	a.AppendBlock(nil, fields)
	b.AppendBlock(nil, fields)
	if a.dt.n != b.dt.n {
		t.Error("same salt produced different indexing")
	}
}

func TestPartialEncoderDecodableByStandardDecoder(t *testing.T) {
	enc := NewPartialEncoder(0.5, 99)
	dec := NewDecoder(DefaultDynamicTableSize)
	fields := []HeaderField{
		{Name: ":status", Value: "200"},
		{Name: "server", Value: "partial/1.0"},
		{Name: "etag", Value: "\"abc\""},
		{Name: "x-custom-a", Value: "aaaa"},
		{Name: "x-custom-b", Value: "bbbb"},
	}
	for round := 0; round < 4; round++ {
		block := enc.AppendBlock(nil, fields)
		got, err := dec.DecodeFull(block)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Fatalf("round %d: got %+v", round, got)
		}
	}
}

func TestEvictionUnderTableSizeChurn(t *testing.T) {
	enc := NewEncoder(PolicyIndexAll)
	dec := NewDecoder(DefaultDynamicTableSize)
	fields := []HeaderField{
		{Name: "x-first", Value: strings.Repeat("v", 100)},
		{Name: "x-second", Value: strings.Repeat("w", 100)},
	}
	if _, err := dec.DecodeFull(enc.AppendBlock(nil, fields)); err != nil {
		t.Fatal(err)
	}
	// Shrink hard, then grow back; decodes must keep succeeding and tables
	// must stay in sync.
	for _, size := range []uint32{64, 0, 4096} {
		enc.SetMaxDynamicTableSize(size)
		block := enc.AppendBlock(nil, fields)
		got, err := dec.DecodeFull(block)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Fatalf("size %d: got %+v", size, got)
		}
		if enc.dt.n != dec.dt.n {
			t.Fatalf("size %d: table divergence enc=%d dec=%d", size, enc.dt.n, dec.dt.n)
		}
	}
}

func TestHuffmanChosenOnlyWhenShorter(t *testing.T) {
	// A value of rare characters inflates under Huffman; the encoder must
	// fall back to the raw literal form.
	enc := NewEncoder(PolicyNoDynamicInsert)
	rare := "\x00\x01\x02\x03\x04"
	block := enc.AppendBlock(nil, []HeaderField{{Name: "x", Value: rare}})
	dec := NewDecoder(DefaultDynamicTableSize)
	fields, err := dec.DecodeFull(block)
	if err != nil {
		t.Fatal(err)
	}
	if fields[0].Value != rare {
		t.Errorf("value = %q", fields[0].Value)
	}
	if hl := huffmanEncodedLen(rare); hl <= len(rare) {
		t.Fatalf("test premise broken: huffman %d <= raw %d", hl, len(rare))
	}
}

// bombTestBlock builds the classic HPACK-bomb shape by hand: one literal
// with incremental indexing inserting a valueLen-byte entry, then refs
// indexed references to it (index 62, the newest dynamic slot). The wire
// size is ~valueLen+refs bytes; the decoded list is ~refs*valueLen.
func bombTestBlock(valueLen, refs int) []byte {
	block := []byte{0x40}
	name := "bomb"
	block = appendVarInt(block, 7, 0, uint64(len(name)))
	block = append(block, name...)
	block = appendVarInt(block, 7, 0, uint64(valueLen))
	block = append(block, bytes.Repeat([]byte{'x'}, valueLen)...)
	for i := 0; i < refs; i++ {
		block = appendVarInt(block, 7, 0x80, 62)
	}
	return block
}

// TestDecoderMaxHeaderListSize pins the HPACK-bomb guard: a small wire
// block that decodes past the configured list bound draws
// ErrHeaderListSize, and the same shape under the bound decodes fully.
func TestDecoderMaxHeaderListSize(t *testing.T) {
	dec := NewDecoder(DefaultDynamicTableSize)
	dec.SetMaxHeaderListSize(64 << 10)
	block := bombTestBlock(3000, 1000) // ~4KB wire, ~3MB decoded
	_, err := dec.DecodeFull(block)
	if !errors.Is(err, ErrHeaderListSize) {
		t.Fatalf("bomb decode error = %v, want ErrHeaderListSize", err)
	}
	var de DecodingError
	if !errors.As(err, &de) {
		t.Fatalf("bomb error %T not a DecodingError (COMPRESSION_ERROR mapping)", err)
	}

	// 10 references of the same entry stay under 64KiB and must decode.
	dec2 := NewDecoder(DefaultDynamicTableSize)
	dec2.SetMaxHeaderListSize(64 << 10)
	fields, err := dec2.DecodeFull(bombTestBlock(3000, 10))
	if err != nil {
		t.Fatalf("under-limit decode: %v", err)
	}
	if len(fields) != 11 {
		t.Fatalf("decoded %d fields, want 11", len(fields))
	}

	// The zero value means unlimited: the full bomb decodes when unguarded.
	dec3 := NewDecoder(DefaultDynamicTableSize)
	fields, err = dec3.DecodeFull(block)
	if err != nil {
		t.Fatalf("unguarded decode: %v", err)
	}
	if len(fields) != 1001 {
		t.Fatalf("unguarded decoded %d fields, want 1001", len(fields))
	}
}

var decoderSink *Decoder

// TestNewDecoderAllocs pins a decoder's construction at one allocation: the
// static-table interns are shared by every decoder, and a decoder's own
// intern map waits for its first connection-local string.
func TestNewDecoderAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		decoderSink = NewDecoder(DefaultDynamicTableSize)
	})
	if allocs > 1 {
		t.Errorf("NewDecoder: %.1f allocs, want <= 1", allocs)
	}
}

// TestInternBudgetPerDecoder checks that interning stays per connection:
// filling one decoder's intern budget changes nothing about how another
// decoder interns, and static-table strings resolve to the table's own
// strings on every decoder.
func TestInternBudgetPerDecoder(t *testing.T) {
	decodeValue := func(d *Decoder, value string) string {
		t.Helper()
		block := appendString([]byte{0x00}, "x-probe") // literal, new name
		fields, err := d.DecodeFull(appendString(block, value))
		if err != nil || len(fields) != 1 || fields[0].Value != value {
			t.Fatalf("decode %q: %v, %v", value, fields, err)
		}
		return fields[0].Value
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	var gzip string
	for _, hf := range staticTable {
		if hf.Value == "gzip, deflate" {
			gzip = hf.Value
		}
	}
	long := strings.Repeat("z", internMaxStringLen)

	// interns reports how a fresh decoder treats a repeated local string, a
	// longest internable string and a static-table value.
	interns := func(label string) {
		t.Helper()
		d := NewDecoder(DefaultDynamicTableSize)
		for _, v := range []string{"connection-local value", long} {
			if !same(decodeValue(d, v), decodeValue(d, v)) {
				t.Errorf("%s: repeated %d-byte value not interned", label, len(v))
			}
		}
		if !same(decodeValue(d, "gzip, deflate"), gzip) {
			t.Errorf("%s: static-table value not resolved to the table's string", label)
		}
		if want := len("x-probe") + len("connection-local value") + len(long); d.internBytes != want {
			t.Errorf("%s: internBytes = %d, want %d", label, d.internBytes, want)
		}
	}

	interns("before")
	full := NewDecoder(DefaultDynamicTableSize)
	for i := 0; full.internBytes+200 <= internBudget; i++ {
		decodeValue(full, fmt.Sprintf("%0200d", i))
	}
	if same(decodeValue(full, long), decodeValue(full, long)) {
		t.Fatalf("a decoder past its %d-byte budget still interns", internBudget)
	}
	interns("after another decoder filled its budget")
}
