package hpack

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file keeps the encoder this package had before the ring and the
// reverse index — a slice table that copies down on eviction and is searched
// newest to oldest with a string compare per entry, and two static maps — as
// the oracle the indexed encoder must match octet for octet. It shares only
// the wire primitives (appendVarInt, appendString) and the policy decision
// (shouldIndex) with the code under test.

type refTable struct {
	ents    []HeaderField // oldest first
	size    uint32
	maxSize uint32
}

func (dt *refTable) setMaxSize(n uint32) {
	dt.maxSize = n
	dt.evict()
}

func (dt *refTable) add(hf HeaderField) {
	if hf.Size() > dt.maxSize {
		dt.ents = dt.ents[:0]
		dt.size = 0
		return
	}
	dt.ents = append(dt.ents, hf)
	dt.size += hf.Size()
	dt.evict()
}

func (dt *refTable) evict() {
	drop := 0
	for dt.size > dt.maxSize && drop < len(dt.ents) {
		dt.size -= dt.ents[drop].Size()
		drop++
	}
	if drop > 0 {
		copy(dt.ents, dt.ents[drop:])
		dt.ents = dt.ents[:len(dt.ents)-drop]
	}
}

// at is the 1-based newest-first accessor, for comparing table contents.
func (dt *refTable) at(i int) HeaderField { return dt.ents[len(dt.ents)-i] }

func (dt *refTable) search(hf HeaderField) (index uint64, nameOnly, found bool) {
	var nameIdx uint64
	for i := len(dt.ents) - 1; i >= 0; i-- {
		ent := dt.ents[i]
		if ent.Name != hf.Name {
			continue
		}
		wire := uint64(staticTableLen) + uint64(len(dt.ents)-i)
		if ent.Value == hf.Value {
			return wire, false, true
		}
		if nameIdx == 0 {
			nameIdx = wire
		}
	}
	if nameIdx != 0 {
		return nameIdx, true, true
	}
	return 0, false, false
}

var refStaticByPair, refStaticByName = func() (map[pair]uint64, map[string]uint64) {
	byPair := make(map[pair]uint64, staticTableLen)
	byName := make(map[string]uint64, staticTableLen)
	for i, hf := range staticTable {
		if _, ok := byPair[pair{hf.Name, hf.Value}]; !ok {
			byPair[pair{hf.Name, hf.Value}] = uint64(i + 1)
		}
		if _, ok := byName[hf.Name]; !ok {
			byName[hf.Name] = uint64(i + 1)
		}
	}
	return byPair, byName
}()

// refEncoder encodes with the reference table. policy is consulted for
// shouldIndex only; its own dynamic table is never touched.
type refEncoder struct {
	dt              refTable
	policy          *Encoder
	tableSizeUpdate uint32
	pendingUpdate   bool
}

func newRefEncoder(policy *Encoder) *refEncoder {
	return &refEncoder{dt: refTable{maxSize: DefaultDynamicTableSize}, policy: policy}
}

func (e *refEncoder) setMaxDynamicTableSize(n uint32) {
	e.dt.setMaxSize(n)
	e.tableSizeUpdate = n
	e.pendingUpdate = true
}

func (e *refEncoder) appendBlock(dst []byte, fields []HeaderField) []byte {
	if e.pendingUpdate {
		dst = appendVarInt(dst, 5, 0x20, uint64(e.tableSizeUpdate))
		e.pendingUpdate = false
	}
	for _, hf := range fields {
		dst = e.appendField(dst, hf)
	}
	return dst
}

func (e *refEncoder) appendField(dst []byte, hf HeaderField) []byte {
	if idx, ok := refStaticByPair[pair{hf.Name, hf.Value}]; ok && !hf.Sensitive {
		return appendVarInt(dst, 7, 0x80, idx)
	}
	dynIdx, nameOnly, dynFound := e.dt.search(hf)
	if dynFound && !nameOnly && !hf.Sensitive {
		return appendVarInt(dst, 7, 0x80, dynIdx)
	}
	var nameIdx uint64
	if idx, ok := refStaticByName[hf.Name]; ok {
		nameIdx = idx
	} else if dynFound {
		nameIdx = dynIdx
	}
	switch {
	case hf.Sensitive:
		dst = appendVarInt(dst, 4, 0x10, nameIdx)
	case e.policy.shouldIndex(hf) && hf.Size() <= e.dt.maxSize:
		dst = appendVarInt(dst, 6, 0x40, nameIdx)
		e.dt.add(hf)
	default:
		dst = appendVarInt(dst, 4, 0x00, nameIdx)
	}
	if nameIdx == 0 {
		dst = appendString(dst, hf.Name)
	}
	return appendString(dst, hf.Value)
}

// encoderPair runs the encoder under test and the reference side by side.
type encoderPair struct {
	enc *Encoder
	ref *refEncoder
	dec *Decoder
}

func newEncoderPair(enc *Encoder) *encoderPair {
	return &encoderPair{enc: enc, ref: newRefEncoder(enc), dec: NewDecoder(DefaultDynamicTableSize)}
}

func (p *encoderPair) setMaxDynamicTableSize(n uint32) {
	p.enc.SetMaxDynamicTableSize(n)
	p.ref.setMaxDynamicTableSize(n)
}

// encode encodes fields on both sides and fails unless the blocks are
// identical, the tables hold the same entries in the same order, and the
// decoder — whose table is the plain ring, with no index — gives the fields
// back and agrees on the table.
func (p *encoderPair) encode(t *testing.T, fields []HeaderField) []byte {
	t.Helper()
	got := p.enc.AppendBlock(nil, fields)
	want := p.ref.appendBlock(nil, fields)
	if !bytes.Equal(got, want) {
		t.Fatalf("block differs from the reference encoder\nfields %q\n got % x\nwant % x", fields, got, want)
	}
	if n := p.enc.dt.n; n != len(p.ref.dt.ents) || p.enc.dt.size != p.ref.dt.size {
		t.Fatalf("table holds %d entries / %d octets, reference %d / %d", n, p.enc.dt.size, len(p.ref.dt.ents), p.ref.dt.size)
	}
	if len(p.enc.dt.byPair) > p.enc.dt.n || len(p.enc.dt.byName) > p.enc.dt.n {
		t.Fatalf("index holds %d pairs and %d names for %d entries: an evicted entry kept its slot",
			len(p.enc.dt.byPair), len(p.enc.dt.byName), p.enc.dt.n)
	}
	decoded, err := p.dec.DecodeFull(got)
	if err != nil {
		t.Fatalf("decode of our own encoding failed: %v\n% x", err, got)
	}
	if len(decoded) != len(fields) {
		t.Fatalf("%d fields in, %d out", len(fields), len(decoded))
	}
	for i := range fields {
		if decoded[i] != fields[i] {
			t.Fatalf("field %d: sent %v, decoded %v", i, fields[i], decoded[i])
		}
	}
	if dl := p.dec.dt.n; dl != len(p.ref.dt.ents) {
		t.Fatalf("decoder table holds %d entries, reference %d", dl, len(p.ref.dt.ents))
	}
	for i := 1; i <= len(p.ref.dt.ents); i++ {
		want := p.ref.dt.at(i)
		if got, _ := p.enc.dt.at(uint64(i)); got != want {
			t.Fatalf("encoder table entry %d = %v, reference %v", i, got, want)
		}
		if got, _ := p.dec.dt.at(uint64(i)); got != want {
			t.Fatalf("decoder table entry %d = %v, reference %v", i, got, want)
		}
	}
	return got
}

func policyEncoders() map[string]func() *Encoder {
	return map[string]func() *Encoder{
		"index-all":  func() *Encoder { return NewEncoder(PolicyIndexAll) },
		"no-insert":  func() *Encoder { return NewEncoder(PolicyNoDynamicInsert) },
		"partial-60": func() *Encoder { return NewPartialEncoder(0.6, 7) },
	}
}

// TestEncoderMatchesReferenceScripted walks the cases the index has to get
// right one at a time, each against the reference.
func TestEncoderMatchesReferenceScripted(t *testing.T) {
	hf := func(name, value string) HeaderField { return HeaderField{Name: name, Value: value} }
	for name, mk := range policyEncoders() {
		t.Run(name, func(t *testing.T) {
			p := newEncoderPair(mk())
			// Duplicate names, duplicate pairs, static names with and
			// without a static value, an empty value on a static name.
			p.encode(t, []HeaderField{
				hf(":status", "200"), hf(":status", "418"), hf(":authority", ""),
				hf("x-a", "1"), hf("x-a", "2"), hf("x-a", "1"), hf("x-b", "1"),
				hf("etag", "one"), hf("etag", "two"), hf("etag", "one"),
			})
			// Sensitive fields: never indexed, and a dynamic exact match
			// serves as their name index.
			p.encode(t, []HeaderField{
				{Name: "x-a", Value: "2", Sensitive: true},
				{Name: "x-a", Value: "9", Sensitive: true},
				{Name: "cookie", Value: "k=v", Sensitive: true},
				{Name: ":status", Value: "200", Sensitive: true},
			})
			// Shrink so that the newest duplicate survives and the older
			// one goes: the index slot must stay with the survivor.
			p.encode(t, []HeaderField{hf("x-dup", "v"), hf("x-mid", "v"), hf("x-dup", "v")})
			p.setMaxDynamicTableSize(2 * hf("x-dup", "v").Size())
			p.encode(t, []HeaderField{hf("x-dup", "v"), hf("x-mid", "v"), hf("x-dup", "w")})
			// Evict a pair, then insert it again.
			p.setMaxDynamicTableSize(80)
			for i := 0; i < 3; i++ {
				p.encode(t, []HeaderField{hf("x-re", "insert"), hf("x-other", "entry")})
			}
			// An entry larger than the table: sent as a plain literal by the
			// encoder; then shrink to zero and grow back.
			p.encode(t, []HeaderField{hf("x-big", strings.Repeat("b", 100)), hf("x-re", "insert")})
			p.setMaxDynamicTableSize(0)
			p.encode(t, []HeaderField{hf("x-a", "1"), hf("x-a", "1")})
			p.setMaxDynamicTableSize(DefaultDynamicTableSize)
			// Enough distinct entries to wrap the ring several times.
			for i := 0; i < 400; i++ {
				p.encode(t, []HeaderField{
					hf("content-length", fmt.Sprint(i*37)),
					hf("x-seq", fmt.Sprint(i%90)),
					hf("x-a", "1"),
				})
			}
		})
	}
}

// TestEncoderMatchesReferenceRandom drives both encoders with seeded random
// field sequences from a small vocabulary, so names and pairs repeat at every
// distance, under all three policies and a table size that keeps changing.
func TestEncoderMatchesReferenceRandom(t *testing.T) {
	names := []string{":path", ":status", "content-length", "etag", "server", "cookie",
		"x-a", "x-b", "x-c", "x-longer-custom-name", ""}
	sizes := []uint32{0, 40, 100, 300, 1000, DefaultDynamicTableSize}
	for name, mk := range policyEncoders() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20170605))
			value := func() string {
				switch rng.Intn(10) {
				case 0:
					return ""
				case 1:
					return strings.Repeat("v", 50+rng.Intn(400)) // often larger than the table
				default:
					return fmt.Sprint(rng.Intn(12))
				}
			}
			p := newEncoderPair(mk())
			for block := 0; block < 3000; block++ {
				if rng.Intn(40) == 0 {
					p.setMaxDynamicTableSize(sizes[rng.Intn(len(sizes))])
				}
				fields := make([]HeaderField, 1+rng.Intn(8))
				for i := range fields {
					fields[i] = HeaderField{Name: names[rng.Intn(len(names))], Value: value(), Sensitive: rng.Intn(15) == 0}
				}
				p.encode(t, fields)
			}
		})
	}
}

// decodeHuffmanTree decodes by walking the node tree bit by bit: the decoder
// this package shipped before the nibble table, kept as the independent
// oracle for FuzzHuffmanRoundTrip, TestHuffmanTableMatchesTree, the
// exhaustive two-octet test and the decode-throughput benchmark baseline.
func decodeHuffmanTree(dst, src []byte) ([]byte, error) {
	n := huffmanRoot
	onesRun := 0 // consecutive 1-bits since the last emitted symbol
	for _, octet := range src {
		for bit := 7; bit >= 0; bit-- {
			b := (octet >> uint(bit)) & 1
			if b == 1 {
				onesRun++
			} else {
				onesRun = 0
			}
			n = n.children[b]
			if n == nil {
				return dst, errInvalidHuffman
			}
			if n.leaf {
				dst = append(dst, n.sym)
				n = huffmanRoot
				onesRun = 0
			}
		}
	}
	// Whatever remains must be a prefix of EOS: strictly fewer than 8 bits,
	// all ones. A longer or non-ones remainder is a coding error.
	if n != huffmanRoot {
		if onesRun == 0 || onesRun > 7 {
			return dst, errInvalidHuffman
		}
		// Verify the pending path is all ones by checking that continuing
		// with 1-bits still descends (EOS is the all-ones path); onesRun
		// counting above already guarantees the consumed tail bits were 1s,
		// but the path could have re-entered after a symbol — ensure the
		// pending depth equals the ones run.
		depth := 0
		probe := huffmanRoot
		for probe != n && depth < 8 {
			probe = probe.children[1]
			if probe == nil {
				return dst, errInvalidHuffman
			}
			depth++
		}
		if probe != n {
			return dst, errInvalidHuffman
		}
	}
	return dst, nil
}
