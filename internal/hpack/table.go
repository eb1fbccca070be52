package hpack

import "hash/maphash"

// dynamicTable is the HPACK dynamic table (RFC 7541 section 2.3.2).
//
// Entries live in a ring: ring[head] is the oldest, and eviction advances
// head without moving anything. The ring grows with the entries actually
// held, never from the (peer-controlled) maximum size. Wire indexing is
// newest-first and offset by the static table: wire index staticTableLen+1
// addresses the newest dynamic entry.
//
// Every insertion gets a sequence number, 1 for the first; inserted is the
// newest entry's. An entry's sequence number never changes while its wire
// index grows with every later insertion, which is what lets an index keep
// pointing at entries: wire index = staticTableLen + inserted - seq + 1.
type dynamicTable struct {
	ring     []HeaderField // len is zero or a power of two
	head, n  int
	size     uint32
	maxSize  uint32
	inserted uint64

	// idx is the encoder's reverse index, nil on a decoder's table.
	idx *reverseIndex
}

// reverseIndex maps a name/value pair, and a field name, to the sequence
// number of the newest entry carrying it — the entry a newest-first scan of
// the table would meet first.
//
// The encoder never inserts a pair its table holds (it sends the index
// instead), so each live entry is the only one with its pair. Pairs are
// found in slots, an open-addressing table with linear probing, at most half
// full, keyed by a seeded hash of the pair; hashes keeps each live entry's
// hash at its ring position, so that eviction finds the entry's slot without
// hashing, or even reading, its strings again.
//
// byName gives a name's newest entry. An evicted entry gives up its byName
// slot only while the slot still points at it, since a newer entry of the
// same name may have taken it over. byName leaves out the names the static
// table has: their static index is always preferred, so search is never
// asked.
type reverseIndex struct {
	seed   maphash.Seed
	slots  []pairSlot // len is zero or a power of two
	pairs  int        // occupied slots: the table's n
	hashes []uint64   // parallel to ring
	byName map[string]uint64
}

// pairSlot is one slot of reverseIndex.slots; seq 0 marks it empty.
type pairSlot struct{ hash, seq uint64 }

func newDynamicTable(maxSize uint32) *dynamicTable {
	return &dynamicTable{maxSize: maxSize}
}

// newIndexedTable returns a dynamic table that also answers search.
func newIndexedTable(maxSize uint32) *dynamicTable {
	dt := newDynamicTable(maxSize)
	dt.idx = &reverseIndex{seed: maphash.MakeSeed(), byName: make(map[string]uint64)}
	return dt
}

// setMaxSize updates the table's maximum size and evicts entries as needed
// (RFC 7541 section 4.3).
func (dt *dynamicTable) setMaxSize(n uint32) {
	dt.maxSize = n
	dt.evictTo(n)
}

// add inserts hf as the newest entry, evicting old entries to fit. An entry
// larger than the whole table empties the table (RFC 7541 section 4.4).
func (dt *dynamicTable) add(hf HeaderField) {
	sz := hf.Size()
	if sz > dt.maxSize {
		dt.evictTo(0)
		return
	}
	dt.evictTo(dt.maxSize - sz)
	if dt.n == len(dt.ring) {
		dt.grow()
	}
	dt.ring[(dt.head+dt.n)&(len(dt.ring)-1)] = hf
	dt.n++
	dt.size += sz
	dt.inserted++
}

// addIndexed is add on an encoder's table: the reverse index follows the new
// entry, whose pair hashes to h, byName only when dynName says the name has
// no static index. hf must fit the table and not be in it.
func (dt *dynamicTable) addIndexed(hf HeaderField, h uint64, dynName bool) {
	dt.add(hf)
	dt.idx.hashes[(dt.head+dt.n-1)&(len(dt.ring)-1)] = h
	dt.idx.insert(h, dt.inserted)
	if dynName {
		dt.idx.byName[hf.Name] = dt.inserted
	}
}

// evictTo drops the oldest entries until the table holds at most limit
// octets.
func (dt *dynamicTable) evictTo(limit uint32) {
	for dt.size > limit {
		ent := &dt.ring[dt.head]
		if ix := dt.idx; ix != nil {
			seq := dt.inserted - uint64(dt.n) + 1
			ix.remove(ix.hashes[dt.head], seq)
			if ix.byName[ent.Name] == seq {
				delete(ix.byName, ent.Name)
			}
		}
		dt.size -= ent.Size()
		*ent = HeaderField{}
		dt.head = (dt.head + 1) & (len(dt.ring) - 1)
		dt.n--
	}
}

// grow doubles the ring, laying the entries out oldest-first from slot 0.
func (dt *dynamicTable) grow() {
	// Amortized doubling up to the most entries the table ever holds;
	// steady-state churn reuses the ring.
	size := max(8, 2*len(dt.ring))
	ring := make([]HeaderField, size)
	k := copy(ring, dt.ring[dt.head:])
	copy(ring[k:], dt.ring[:dt.head])
	if ix := dt.idx; ix != nil {
		hashes := make([]uint64, size)
		copy(hashes[copy(hashes, ix.hashes[dt.head:]):], ix.hashes[:dt.head])
		ix.hashes = hashes
	}
	dt.ring, dt.head = ring, 0
}

// at returns the entry with 1-based dynamic index i (1 = newest).
func (dt *dynamicTable) at(i uint64) (HeaderField, bool) {
	if i == 0 || i > uint64(dt.n) {
		return HeaderField{}, false
	}
	return dt.ring[(dt.head+dt.n-int(i))&(len(dt.ring)-1)], true
}

// pairHash is the hash search and addIndexed key hf's pair by: the seeded
// hashes of name and value, combined the way Boost's hash_combine does.
func (dt *dynamicTable) pairHash(hf HeaderField) uint64 {
	h := maphash.String(dt.idx.seed, hf.Name)
	return h ^ (maphash.String(dt.idx.seed, hf.Value) + 0x9e3779b97f4a7c15 + h<<6 + h>>2)
}

// search returns the sequence number of the best dynamic entry for hf, whose
// pair hashes to h: the entry holding the pair if there is one, else — when
// wantName is set — the newest entry of that name. nameOnly reports which
// kind was found. It needs the reverse index, so only an encoder's table can
// search.
func (dt *dynamicTable) search(hf HeaderField, h uint64, wantName bool) (seq uint64, nameOnly, found bool) {
	ix := dt.idx
	if len(ix.slots) > 0 {
		mask := uint64(len(ix.slots) - 1)
		for i := h & mask; ix.slots[i].seq != 0; i = (i + 1) & mask {
			if s := ix.slots[i]; s.hash == h {
				if ent, _ := dt.at(dt.inserted - s.seq + 1); ent.Name == hf.Name && ent.Value == hf.Value {
					return s.seq, false, true
				}
			}
		}
	}
	if wantName {
		seq, found = ix.byName[hf.Name]
	}
	return seq, found, found
}

// insert files the entry seq, whose pair hashes to h, growing the slots to
// stay at most half full.
func (ix *reverseIndex) insert(h, seq uint64) {
	if 2*(ix.pairs+1) > len(ix.slots) {
		old := ix.slots
		ix.slots = make([]pairSlot, max(8, 2*len(old)))
		ix.pairs = 0
		for _, s := range old {
			if s.seq != 0 {
				ix.insert(s.hash, s.seq)
			}
		}
	}
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i].seq != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = pairSlot{h, seq}
	ix.pairs++
}

// remove takes the entry seq, whose pair hashes to h, out of the slots, and
// shifts back the entries after it in its probe run so that no probe run
// has a hole.
func (ix *reverseIndex) remove(h, seq uint64) {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i].seq != seq {
		if ix.slots[i].seq == 0 {
			return // not filed: nothing to take out
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.slots[j].seq != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home slot lies
		// cyclically in (i, j].
		if home := ix.slots[j].hash & mask; (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = pairSlot{}
	ix.pairs--
}

// wireIndex is the wire index of the live entry with sequence number seq.
func (dt *dynamicTable) wireIndex(seq uint64) uint64 {
	return uint64(staticTableLen) + dt.inserted - seq + 1
}

// lookup resolves a wire index across the static and dynamic tables.
func (dt *dynamicTable) lookup(i uint64) (HeaderField, bool) {
	if i == 0 {
		return HeaderField{}, false
	}
	if i <= uint64(staticTableLen) {
		return staticTable[i-1], true
	}
	return dt.at(i - uint64(staticTableLen))
}
