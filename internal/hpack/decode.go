package hpack

import (
	"errors"
	"fmt"
)

// Decoder decodes complete header blocks. A Decoder maintains one dynamic
// table and therefore belongs to exactly one HTTP/2 connection direction.
// It is not safe for concurrent use.
type Decoder struct {
	dt dynamicTable

	// allowedMaxSize caps dynamic-table size updates; it tracks the local
	// SETTINGS_HEADER_TABLE_SIZE value.
	allowedMaxSize uint32
	// maxHeaderListSize bounds the cumulative RFC 7541 section 4.1 size
	// (name + value + 32 per field) of one decoded block; 0 means
	// unbounded. This is the HPACK-bomb defense: a few-KiB block of
	// indexed references to a large dynamic-table entry can expand
	// thousandsfold, so the bound is enforced against decoded size as
	// decoding proceeds, not against the wire block.
	maxHeaderListSize uint32

	// huf is the scratch buffer for Huffman-decoded string literals, reused
	// across calls so steady-state decoding performs no per-string
	// allocations.
	huf []byte
	// interns dedupes the strings decoded on this connection, up to a
	// budget, so repeated header fields (the paper's H-identical-requests
	// compression probe) resolve to the same string without allocating.
	// Static-table names and values are in staticInterns instead; interns is
	// nil until the first string that neither map holds. Lookup via
	// interns[string(b)] does not allocate (the compiler elides the
	// conversion for map access).
	interns     map[string]string
	internBytes int
}

// staticInterns maps every static-table name and value to itself. It is
// built once and only read, so every decoder shares it.
var staticInterns = buildStaticInterns()

func buildStaticInterns() map[string]string {
	m := make(map[string]string, 2*staticTableLen)
	for _, hf := range staticTable {
		m[hf.Name] = hf.Name
		if hf.Value != "" {
			m[hf.Value] = hf.Value
		}
	}
	return m
}

// internMaxStringLen caps the length of a single interned string; longer
// literals (cookies, long URLs) are unlikely to repeat verbatim and would
// burn the budget.
const internMaxStringLen = 256

// internBudget caps the total bytes of connection-local interned strings, so
// a hostile peer streaming unique headers cannot grow the map unboundedly.
const internBudget = 64 << 10

// NewDecoder returns a decoder whose dynamic table is capped at
// maxDynamicTableSize (use DefaultDynamicTableSize for the RFC default).
func NewDecoder(maxDynamicTableSize uint32) *Decoder {
	return &Decoder{
		dt:             dynamicTable{maxSize: maxDynamicTableSize},
		allowedMaxSize: maxDynamicTableSize,
	}
}

// intern returns b as a string, reusing a previously allocated copy when the
// same bytes are a static-table string or were seen before on this decoder.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.interns[string(b)]; ok {
		return s
	}
	if s, ok := staticInterns[string(b)]; ok {
		return s
	}
	// One-time copy on an intern miss; repeated field values hit the cache above.
	s := string(b)
	if len(s) <= internMaxStringLen && d.internBytes+len(s) <= internBudget {
		if d.interns == nil {
			d.interns = make(map[string]string)
		}
		d.interns[s] = s
		d.internBytes += len(s)
	}
	return s
}

// SetMaxHeaderListSize bounds the decoded (not encoded) size of one header
// block, measured as RFC 7541 section 4.1 defines (name + value + 32 octets
// per field). Decoding a block that expands past the bound fails with
// ErrHeaderListSize; receivers treat that like any other decoding error
// (COMPRESSION_ERROR), which is what neutralizes HPACK bombs. Zero disables
// the bound.
func (d *Decoder) SetMaxHeaderListSize(n uint32) { d.maxHeaderListSize = n }

// SetAllowedMaxDynamicTableSize updates the ceiling the peer may raise the
// dynamic table to, mirroring a SETTINGS_HEADER_TABLE_SIZE change.
func (d *Decoder) SetAllowedMaxDynamicTableSize(n uint32) {
	d.allowedMaxSize = n
	if d.dt.maxSize > n {
		d.dt.setMaxSize(n)
	}
}

// DecodeFull decodes one complete header block into a fresh slice.
func (d *Decoder) DecodeFull(block []byte) ([]HeaderField, error) {
	return d.DecodeAppend(nil, block)
}

// DecodeAppend decodes one complete header block, appending the decoded
// fields to fields and returning the extended slice. Passing a slice with
// retained capacity (fields[:0]) makes steady-state decoding of repeated
// blocks allocation-free: field strings come from the static table, the
// dynamic table, or the decoder's intern cache.
func (d *Decoder) DecodeAppend(fields []HeaderField, block []byte) ([]HeaderField, error) {
	var (
		seenField  bool
		err        error
		hf         HeaderField
		emitted    bool
		sizeUpdate bool
		listSize   uint64
	)
	for len(block) > 0 {
		b := block[0]
		// A one-octet index (1-126) to an entry that exists — most fields of
		// a repeated header list — resolves inline; index 0, the two-octet
		// form and every miss take readIndexed, which reports the error.
		if b&0x80 != 0 && b != 0xff {
			if hf, ok := d.dt.lookup(uint64(b & 0x7f)); ok {
				if listSize += uint64(hf.Size()); d.overListSize(listSize) {
					return fields, d.listSizeError(listSize)
				}
				fields = append(fields, hf)
				seenField = true
				block = block[1:]
				continue
			}
		}
		switch {
		case b&0x80 != 0: // indexed field
			hf, block, err = d.readIndexed(block)
			emitted, sizeUpdate = true, false
		case b&0xc0 == 0x40: // literal with incremental indexing
			hf, block, err = d.readLiteral(block, 6)
			if err == nil {
				d.dt.add(hf)
			}
			emitted, sizeUpdate = true, false
		case b&0xe0 == 0x20: // dynamic table size update
			block, err = d.readSizeUpdate(block)
			emitted, sizeUpdate = false, true
		case b&0xf0 == 0x10: // literal never indexed
			hf, block, err = d.readLiteral(block, 4)
			hf.Sensitive = true
			emitted, sizeUpdate = true, false
		default: // 0000xxxx: literal without indexing
			hf, block, err = d.readLiteral(block, 4)
			emitted, sizeUpdate = true, false
		}
		if err != nil {
			return fields, err
		}
		if sizeUpdate && seenField {
			return fields, DecodingError{errors.New("dynamic table size update after header fields")}
		}
		if emitted {
			if listSize += uint64(hf.Size()); d.overListSize(listSize) {
				return fields, d.listSizeError(listSize)
			}
			fields = append(fields, hf)
			seenField = true
		}
	}
	return fields, nil
}

// overListSize reports whether listSize, the decoded size of a block so far,
// is past SetMaxHeaderListSize's bound.
func (d *Decoder) overListSize(listSize uint64) bool {
	return d.maxHeaderListSize > 0 && listSize > uint64(d.maxHeaderListSize)
}

func (d *Decoder) listSizeError(listSize uint64) error {
	return DecodingError{fmt.Errorf("%w: %d > %d octets", ErrHeaderListSize, listSize, d.maxHeaderListSize)}
}

func (d *Decoder) readIndexed(buf []byte) (HeaderField, []byte, error) {
	idx, rest, err := readVarInt(buf, 7)
	if err != nil {
		return HeaderField{}, nil, err
	}
	hf, ok := d.dt.lookup(idx)
	if !ok {
		return HeaderField{}, nil, DecodingError{fmt.Errorf("%w: %d", ErrInvalidIndex, idx)}
	}
	return hf, rest, nil
}

func (d *Decoder) readLiteral(buf []byte, prefix uint8) (HeaderField, []byte, error) {
	nameIdx, rest, err := readVarInt(buf, prefix)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var hf HeaderField
	if nameIdx != 0 {
		ent, ok := d.dt.lookup(nameIdx)
		if !ok {
			return HeaderField{}, nil, DecodingError{fmt.Errorf("%w: name index %d", ErrInvalidIndex, nameIdx)}
		}
		hf.Name = ent.Name
	} else {
		hf.Name, rest, err = d.readString(rest)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	hf.Value, rest, err = d.readString(rest)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return hf, rest, nil
}

func (d *Decoder) readString(buf []byte) (string, []byte, error) {
	if len(buf) == 0 {
		return "", nil, DecodingError{errors.New("truncated string literal")}
	}
	huffman := buf[0]&0x80 != 0
	n, rest, err := readVarInt(buf, 7)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, DecodingError{errors.New("string literal exceeds block")}
	}
	raw := rest[:n]
	rest = rest[n:]
	if !huffman {
		return d.intern(raw), rest, nil
	}
	d.huf, err = decodeHuffman(d.huf[:0], raw)
	if err != nil {
		return "", nil, DecodingError{err}
	}
	return d.intern(d.huf), rest, nil
}

func (d *Decoder) readSizeUpdate(buf []byte) ([]byte, error) {
	n, rest, err := readVarInt(buf, 5)
	if err != nil {
		return nil, err
	}
	if n > uint64(d.allowedMaxSize) {
		return nil, DecodingError{fmt.Errorf("table size update %d above allowed %d", n, d.allowedMaxSize)}
	}
	d.dt.setMaxSize(uint32(n))
	return rest, nil
}
