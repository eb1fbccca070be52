package hpack

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// fuzzSeed decodes an RFC 7541 Appendix C hex vector for the seed corpus.
func fuzzSeed(s string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzDecode feeds arbitrary header blocks to the decoder. DecodeFull must
// never panic, and its resource bounds must hold: no decoded string may
// exceed the configured maximum, the field count cannot exceed the input
// length (every representation costs at least one byte), and the dynamic
// table must stay within its size budget.
func FuzzDecode(f *testing.F) {
	// RFC 7541 Appendix C vectors: literals, indexed fields, Huffman
	// strings, and dynamic-table insertions/evictions.
	f.Add(fuzzSeed("400a 6375 7374 6f6d 2d6b 6579 0d63 7573 746f 6d2d 6865 6164 6572")) // C.2.1
	f.Add(fuzzSeed("8286 8441 0f77 7777 2e65 7861 6d70 6c65 2e63 6f6d"))                // C.3.1
	f.Add(fuzzSeed("8286 84be 5808 6e6f 2d63 6163 6865"))                               // C.3.2
	f.Add(fuzzSeed("8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff"))                       // C.4.1
	f.Add(fuzzSeed("4882 6402 5885 aec3 771a 4b61 96d0 7abe 9410 54d4 44a8 2005 9504" +
		"0b81 66e0 82a6 2d1b ff6e 919d 29ad 1718 63c7 8f0b 97c8 e9ae 82ae 43d3")) // C.6.1
	f.Add(fuzzSeed("3fe1 1f"))                          // dynamic table size update
	f.Add(fuzzSeed("20"))                               // size update to zero
	f.Add(fuzzSeed("82ff ffff ffff ffff ffff"))         // runaway varint
	f.Add(fuzzSeed("0a6b 65 79"))                       // truncated literal
	f.Add(fuzzSeed("418c f1e3 c2e5 f23a 6ba0 ab90 f4")) // truncated Huffman string
	f.Add([]byte{})

	const tableSize = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(tableSize)
		fields, err := dec.DecodeFull(data)
		_ = err // any error is acceptable; panics and bound violations are not
		if len(fields) > len(data) {
			t.Fatalf("decoded %d fields from %d input bytes", len(fields), len(data))
		}
		// Every dynamic-table entry costs its 32-byte RFC 7541 overhead, so
		// a 4096-byte table can never hold more than 128 entries.
		if n := dec.dt.n; n > tableSize/32 {
			t.Fatalf("dynamic table holds %d entries, max possible is %d", n, tableSize/32)
		}
	})
}

// FuzzHpackEncode is the encode→decode round-trip identity check: whatever
// header list the encoder emits, under any indexing policy and across
// multiple blocks sharing one dynamic table, the decoder must reproduce it
// field-for-field. Divergence here is exactly the paper's nightmare case —
// both ends "work" but the measured header bytes mean something else.
//
// It is also the differential check of the encoder's reverse index: every
// block must equal, octet for octet, what the linear-scan reference encoder
// (reference_test.go) emits for the same fields, through a table that is
// shrunk mid-run (evicting, or leaving every field oversize) and grown back.
func FuzzHpackEncode(f *testing.F) {
	f.Add(":method", "GET", "accept", "text/html", uint8(0), uint8(2))
	f.Add(":status", "200", "server", "nginx/1.10", uint8(1), uint8(1))
	f.Add("x-custom", strings.Repeat("v", 5000), "x-empty", "", uint8(2), uint8(3))
	f.Add("", "", "", "\x00\xff\x80", uint8(3), uint8(2))
	f.Add("x-a", "1", "x-a", "1", uint8(0), uint8(3|5<<2))          // 80-octet table: duplicates evict each other
	f.Add("etag", "one", "x-b", "two", uint8(0), uint8(3|2<<2))     // 32-octet table: every field oversize
	f.Add("x-a", "1", "x-bb", "22", uint8(2), uint8(3|7<<2))        // partial policy, evict then reinsert
	f.Add(":path", "/", ":path", "/index.html", uint8(0), uint8(3)) // static exact matches only
	f.Fuzz(func(t *testing.T, name1, value1, name2, value2 string, policyByte, repeats uint8) {
		var enc *Encoder
		switch policyByte % 3 {
		case 0:
			enc = NewEncoder(PolicyIndexAll)
		case 1:
			enc = NewEncoder(PolicyNoDynamicInsert)
		default:
			enc = NewPartialEncoder(float64(policyByte)/255, uint32(policyByte))
		}
		p := newEncoderPair(enc)
		fields := []HeaderField{
			{Name: name1, Value: value1},
			{Name: name2, Value: value2},
			{Name: name1, Value: value2}, // repeated name exercises name-only index hits
			{Name: name2, Value: value2}, // repeated pair exercises exact index hits
		}
		n := int(repeats%4) + 1
		// The upper six bits pick the size the table is cut to before the
		// second block (0 leaves it alone); the fourth block sees it restored.
		shrunk := uint32(repeats>>2) * 16
		for block := 0; block < n; block++ {
			if shrunk != 0 && block == 1 {
				p.setMaxDynamicTableSize(shrunk)
			}
			if shrunk != 0 && block == 3 {
				p.setMaxDynamicTableSize(DefaultDynamicTableSize)
			}
			p.encode(t, fields)
		}
	})
}

// FuzzHuffmanRoundTrip pits the table-driven Huffman decoder against the
// reference tree decoder. On arbitrary octets the two must agree exactly —
// same output bytes, same error-or-not — so any divergence in code-tree
// walking or EOS-padding validation (RFC 7541 §5.2) surfaces immediately.
// The same input reinterpreted as a plain string must also survive an
// encode→decode round trip.
func FuzzHuffmanRoundTrip(f *testing.F) {
	f.Add([]byte("www.example.com"))
	f.Add([]byte("no-cache"))
	f.Add(fuzzSeed("f1e3 c2e5 f23a 6ba0 ab90 f4ff")) // C.4.1 Huffman literal
	f.Add([]byte{0x07})                              // valid 3-bit padding
	f.Add([]byte{0x07, 0xff})                        // 11 bits of padding
	f.Add([]byte{0xfe})                              // non-EOS padding
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})            // explicit EOS
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		table, tableErr := decodeHuffman(nil, data)
		tree, treeErr := decodeHuffmanTree(nil, data)
		if (tableErr != nil) != (treeErr != nil) {
			t.Fatalf("decoder disagreement on % x: table err = %v, tree err = %v",
				data, tableErr, treeErr)
		}
		if !bytes.Equal(table, tree) {
			t.Fatalf("decoder disagreement on % x: table = % x, tree = % x", data, table, tree)
		}
		enc := appendHuffman(nil, string(data))
		dec, err := decodeHuffman(nil, enc)
		if err != nil {
			t.Fatalf("decode of our own encoding failed: %v\ninput % x\nencoded % x", err, data, enc)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("round trip mismatch: in % x, out % x", data, dec)
		}
	})
}
