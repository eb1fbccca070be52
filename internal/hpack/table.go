package hpack

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

	// byName and byPair are the encoder's reverse index, nil on a decoder's
	// table. They map a field name, and a name/value pair, to the sequence
	// number of the newest entry carrying it — the entry a newest-first scan
	// of the table would meet first. An evicted entry gives up a slot only
	// while the slot still points at it; otherwise a newer duplicate has
	// taken the slot over. byName leaves out the names the static table has:
	// their static index is always preferred, so search is never asked.
	byName map[string]uint64
	byPair map[pair]uint64
}

func newDynamicTable(maxSize uint32) *dynamicTable {
	return &dynamicTable{maxSize: maxSize}
}

// newIndexedTable returns a dynamic table that also answers search.
func newIndexedTable(maxSize uint32) *dynamicTable {
	dt := newDynamicTable(maxSize)
	dt.byName, dt.byPair = make(map[string]uint64), make(map[pair]uint64)
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
// entry, byName only when dynName says the name has no static index. hf must
// fit the table.
func (dt *dynamicTable) addIndexed(hf HeaderField, dynName bool) {
	dt.add(hf)
	dt.byPair[pair{hf.Name, hf.Value}] = dt.inserted
	if dynName {
		dt.byName[hf.Name] = dt.inserted
	}
}

// evictTo drops the oldest entries until the table holds at most limit
// octets.
func (dt *dynamicTable) evictTo(limit uint32) {
	for dt.size > limit {
		ent := &dt.ring[dt.head]
		if dt.byPair != nil {
			seq := dt.inserted - uint64(dt.n) + 1
			if dt.byName[ent.Name] == seq {
				delete(dt.byName, ent.Name)
			}
			if p := (pair{ent.Name, ent.Value}); dt.byPair[p] == seq {
				delete(dt.byPair, p)
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
	//h2lint:ignore hotalloc amortized doubling up to the most entries the table ever holds; steady-state churn reuses the ring
	ring := make([]HeaderField, max(8, 2*len(dt.ring)))
	k := copy(ring, dt.ring[dt.head:])
	copy(ring[k:], dt.ring[:dt.head])
	dt.ring, dt.head = ring, 0
}

// at returns the entry with 1-based dynamic index i (1 = newest).
func (dt *dynamicTable) at(i uint64) (HeaderField, bool) {
	if i == 0 || i > uint64(dt.n) {
		return HeaderField{}, false
	}
	return dt.ring[(dt.head+dt.n-int(i))&(len(dt.ring)-1)], true
}

// search returns the best wire index for hf among dynamic entries: the
// newest exact name/value match if one exists, else — when wantName is set —
// the newest name-only match. nameOnly reports which kind was found.
// It needs the reverse index, so only an encoder's table can search.
func (dt *dynamicTable) search(hf HeaderField, wantName bool) (index uint64, nameOnly, found bool) {
	seq, ok := dt.byPair[pair{hf.Name, hf.Value}]
	if !ok && wantName {
		seq, ok = dt.byName[hf.Name]
		nameOnly = true
	}
	if !ok {
		return 0, false, false
	}
	return uint64(staticTableLen) + dt.inserted - seq + 1, nameOnly, true
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
