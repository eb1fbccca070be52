package hpack

// IndexingPolicy selects how aggressively an Encoder uses the dynamic table.
//
// The paper's HPACK experiment (Section V-G, Figs. 4 and 5) shows deployed
// servers differ exactly here: GSE and LiteSpeed insert response fields into
// the dynamic table (compression ratio r < 0.3 over repeated identical
// responses) while Nginx and Tengine never do (r ≈ 1).
type IndexingPolicy int

const (
	// PolicyIndexAll inserts every indexable field into the dynamic table.
	PolicyIndexAll IndexingPolicy = iota + 1
	// PolicyNoDynamicInsert never inserts fields into the dynamic table.
	// Exact static-table matches are still used. This reproduces the
	// Nginx/Tengine response-encoding behavior ("support*" in Table III).
	PolicyNoDynamicInsert
	// PolicyIndexPartial inserts only a deterministic subset of field
	// names, selected by NewPartialEncoder's fraction. Deployed servers
	// between the extremes (the middles of the paper's Figs. 4 and 5
	// ratio CDFs) behave this way: some response fields compress across
	// repeats, others are re-sent literally every time.
	PolicyIndexPartial
)

// Encoder encodes header blocks. An Encoder maintains one dynamic table and
// therefore belongs to exactly one HTTP/2 connection direction.
// It is not safe for concurrent use.
type Encoder struct {
	dt     *dynamicTable
	policy IndexingPolicy

	// partialThreshold selects which field names PolicyIndexPartial
	// indexes: names whose salted hash falls below it.
	partialThreshold uint32
	partialSalt      uint32

	// tableSizeUpdate, when pendingUpdate is set, is emitted as a dynamic
	// table size update at the start of the next header block.
	tableSizeUpdate uint32
	pendingUpdate   bool

	// memo holds, for each of the first memoFields positions of the
	// previous block, the table entry its field resolved to (see memoIndex).
	// It grows to the longest block seen, up to memoFields.
	memo []uint64
}

// memoFields bounds the block positions an Encoder remembers.
const memoFields = 16

// NewEncoder returns an encoder with the default 4,096-byte dynamic table.
func NewEncoder(policy IndexingPolicy) *Encoder {
	return &Encoder{
		dt:     newIndexedTable(DefaultDynamicTableSize),
		policy: policy,
	}
}

// DefaultDynamicTableSize is the initial SETTINGS_HEADER_TABLE_SIZE value.
const DefaultDynamicTableSize = 4096

// NewPartialEncoder returns a PolicyIndexPartial encoder that indexes
// roughly the given fraction (0..1) of distinct field names. salt varies
// *which* names fall in the indexed subset, so a population of servers with
// the same fraction still differs in the exact fields it compresses.
func NewPartialEncoder(fraction float64, salt uint32) *Encoder {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	e := NewEncoder(PolicyIndexPartial)
	e.partialThreshold = uint32(fraction * float64(1<<32-1))
	e.partialSalt = salt
	return e
}

// fnv32 hashes a field name for the partial-indexing decision.
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// shouldIndex applies the encoder policy to one field.
func (e *Encoder) shouldIndex(hf HeaderField) bool {
	switch e.policy {
	case PolicyIndexAll:
		return true
	case PolicyIndexPartial:
		h := fnv32(hf.Name) ^ e.partialSalt*2654435761
		return h <= e.partialThreshold
	default:
		return false
	}
}

// SetMaxDynamicTableSize schedules a dynamic table size update. The new size
// takes effect immediately for the encoder's own table and is announced at
// the start of the next encoded block, as RFC 7541 section 4.2 requires.
func (e *Encoder) SetMaxDynamicTableSize(n uint32) {
	e.dt.setMaxSize(n)
	e.tableSizeUpdate = n
	e.pendingUpdate = true
}

// AppendBlock encodes fields as one header block, appending the octets to
// dst and returning the extended slice. Passing a scratch slice with
// retained capacity (buf[:0]) makes steady-state encoding allocation-free
// once the dynamic table has converged.
func (e *Encoder) AppendBlock(dst []byte, fields []HeaderField) []byte {
	if e.pendingUpdate {
		dst = appendVarInt(dst, 5, 0x20, uint64(e.tableSizeUpdate))
		e.pendingUpdate = false
	}
	if n := min(len(fields), memoFields); len(e.memo) < n {
		e.memo = append(e.memo, make([]uint64, n-len(e.memo))...)
	}
	for i, hf := range fields {
		if i < len(e.memo) && !hf.Sensitive {
			if idx, ok := e.memoIndex(e.memo[i], hf); ok {
				dst = appendVarInt(dst, 7, 0x80, idx)
				continue
			}
		}
		var ref uint64
		dst, ref = e.appendField(dst, hf)
		if i < len(e.memo) {
			e.memo[i] = ref
		}
	}
	return dst
}

// memoIndex tries a memo entry on the field at its position and returns the
// wire index to send when the entry still holds that very field. A memo
// entry (a ref) is a static index (1 to staticTableLen), or staticTableLen
// plus the sequence number of a dynamic entry the field matched or was
// inserted as; 0 means the field went out as a literal no table holds.
//
// A repeat of the same field at the same position is the common case — a
// client's request lists and a server's prebuilt response lists differ from
// block to block in a field or two — so the encoder asks the memo before any
// lookup, and a repeat costs two string compares, O(1) when the strings are
// the ones the entry was made from. A hit is exact: the entry is an exact
// match, the static table holds no pair twice, and the encoder never inserts
// a pair that a table holds (it sends the index instead), so a live dynamic
// entry holding the field is the only match there is, the one search finds.
func (e *Encoder) memoIndex(ref uint64, hf HeaderField) (uint64, bool) {
	var ent *HeaderField
	switch {
	case ref == 0:
		return 0, false
	case ref <= uint64(staticTableLen):
		ent = &staticTable[ref-1]
	default:
		// The entry's dynamic index; past the table once it is evicted.
		dt := e.dt
		i := dt.inserted - (ref - uint64(staticTableLen)) + 1
		if i > uint64(dt.n) {
			return 0, false
		}
		ent = &dt.ring[(dt.head+dt.n-int(i))&(len(dt.ring)-1)]
		ref = uint64(staticTableLen) + i
	}
	return ref, ent.Value == hf.Value && ent.Name == hf.Name
}

// appendField encodes one field and returns, as a memo ref, the table entry
// it resolved to.
func (e *Encoder) appendField(dst []byte, hf HeaderField) ([]byte, uint64) {
	// Exact match: indexed representation, static table first.
	run, static := staticNames[hf.Name]
	if static && !hf.Sensitive {
		for idx := run.first; idx <= run.last; idx++ {
			if staticTable[idx-1].Value == hf.Value {
				return appendVarInt(dst, 7, 0x80, idx), idx
			}
		}
	}
	// A static name index is preferred for stability, so the dynamic table
	// is asked for a name-only match just when there is none.
	h := e.dt.pairHash(hf)
	seq, nameOnly, dynFound := e.dt.search(hf, h, !static)
	if dynFound && !nameOnly && !hf.Sensitive {
		return appendVarInt(dst, 7, 0x80, e.dt.wireIndex(seq)), uint64(staticTableLen) + seq
	}
	nameIdx := run.first
	if !static && dynFound {
		nameIdx = e.dt.wireIndex(seq)
	}

	var ref uint64
	switch {
	case hf.Sensitive:
		// Never-indexed literal (RFC 7541 section 6.2.3).
		dst = appendVarInt(dst, 4, 0x10, nameIdx)
	case e.shouldIndex(hf) && hf.Size() <= e.dt.maxSize:
		// Literal with incremental indexing (section 6.2.1).
		dst = appendVarInt(dst, 6, 0x40, nameIdx)
		e.dt.addIndexed(hf, h, !static)
		ref = uint64(staticTableLen) + e.dt.inserted
	default:
		// Literal without indexing (section 6.2.2).
		dst = appendVarInt(dst, 4, 0x00, nameIdx)
	}
	if nameIdx == 0 {
		dst = appendString(dst, hf.Name)
	}
	return appendString(dst, hf.Value), ref
}

// appendString encodes a string literal, choosing Huffman coding whenever it
// is strictly shorter than the raw octets.
func appendString(dst []byte, s string) []byte {
	if hl := huffmanEncodedLen(s); hl < len(s) {
		dst = appendVarInt(dst, 7, 0x80, uint64(hl))
		return appendHuffman(dst, s)
	}
	dst = appendVarInt(dst, 7, 0x00, uint64(len(s)))
	return append(dst, s...)
}
