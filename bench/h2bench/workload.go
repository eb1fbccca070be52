package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"

	"h2scope/internal/hpack"
	"h2scope/internal/server"
)

// Workload names, in the order the suite runs them.
const (
	wlSmallGet  = "small_get"
	wlLargeGet  = "large_get"
	wlConnChurn = "conn_churn"
	wlProbeScan = "probe_scan"
)

// workloadDef is one named traffic mix. Why is printed with the results and
// mirrored in BENCHMARK.json, so the reason a workload exists travels with
// its numbers.
type workloadDef struct {
	Name string
	Why  string
	// OpUnit names what one op is on this workload.
	OpUnit string
	// Batch is the number of concurrent requests per connection (serve
	// workloads); conn_churn issues its requests one at a time.
	Batch int
}

var workloads = []workloadDef{
	{wlSmallGet,
		"32 concurrent small GETs per conn, Zipf paths: per-request cost (frame, hpack, dispatch, header egress) dominates, bytes are negligible",
		"request", 32},
	{wlLargeGet,
		"8 concurrent 96 KiB GETs per conn: per-byte cost (WriteData, flow control, WRR egress, copies, transport) dominates; header-path changes must not move it",
		"request", 8},
	{wlConnChurn,
		"dial, SETTINGS exchange, 4 sequential GETs, GOAWAY, close: cold HPACK tables, fresh buffers, accept and conn-table insert/remove on every op",
		"connection", 1},
	{wlProbeScan,
		"population.Scan of seeded census sites over in-process pipes: the paper's own probe traffic; wall is timer-bound, CPU and allocation per site are not",
		"site", 1},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	benchAuthority = "bench.example"
	// siteObjects is the size of the small-object document tree.
	siteObjects = 1 << siteObjectBits
	// siteObjectBits is log2(siteObjects), the width of the bit-reversal
	// that spreads sizes over popularity ranks.
	siteObjectBits = 10
	minObjectSize  = 64
	maxObjectSize  = 4 << 10
	largeObjects   = 8
	largeObjSize   = 96 << 10
	// seqLen is the length of each connection's pre-drawn request
	// sequence; the driver cycles through it, so drawing costs nothing
	// inside the measured window.
	seqLen = 1 << 18
	// churnRequests is the number of sequential GETs per conn_churn op.
	churnRequests = 4
)

// object is one servable resource the benchmark knows the expected bytes of.
type object struct {
	Path string
	Body []byte
}

// benchSite is the seeded document tree plus the popularity order requests
// are drawn in.
type benchSite struct {
	Site *server.Site
	// Small are the siteObjects small objects in popularity order: Small[0]
	// is the Zipf rank-1 (hottest) path.
	Small []object
	// Large are /large/1..8.
	Large []object
}

// buildSite makes the document tree. The sizes are the 1024 quantiles of
// the log-uniform distribution over [64 B, 4 KiB] — the same for every
// seed — dealt to popularity ranks by a fixed bit-reversal of the size order
// (rank 1 gets the median size, rank 2 the smallest, rank 3 the upper
// quartile, ...). With Zipf s=1 the hottest path alone draws 13 % of the
// requests, so sizes drawn or dealt at random would let one seed's luck
// swing the mean response size — and goodput — by 15 % between runs that
// are meant to be comparable. The seed names the paths (which decides how
// each one Huffman-codes and where it lands in the route table) and orders
// the requests.
func buildSite(seed int64) *benchSite {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int, siteObjects)
	for i := range sizes {
		u := (float64(i) + 0.5) / siteObjects
		sizes[i] = int(math.Round(minObjectSize * math.Pow(maxObjectSize/minObjectSize, u)))
	}

	bs := &benchSite{Site: server.NewSite(benchAuthority)}
	seen := make(map[string]bool, siteObjects)
	for rank := 0; rank < siteObjects; rank++ {
		var path string
		for {
			path = fmt.Sprintf("/o/%08x", rng.Uint32())
			if !seen[path] {
				seen[path] = true
				break
			}
		}
		idx := int(bits.Reverse16(uint16(rank))>>(16-siteObjectBits)) ^ (siteObjects / 2)
		bs.Site.AddObject(path, sizes[idx])
		bs.Small = append(bs.Small, object{Path: path})
	}
	for i := 1; i <= largeObjects; i++ {
		path := "/large/" + strconv.Itoa(i)
		bs.Site.AddObject(path, largeObjSize)
		bs.Large = append(bs.Large, object{Path: path})
	}
	for _, set := range [][]object{bs.Small, bs.Large} {
		for i := range set {
			res, _ := bs.Site.Lookup(set[i].Path)
			set[i].Body = res.Body
		}
	}
	return bs
}

// zipfTable is the cumulative distribution of Zipf(s=1) over n ranks.
// (math/rand's Zipf needs s > 1.)
type zipfTable struct{ cdf []float64 }

func newZipfTable(n int) *zipfTable {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipfTable{cdf: cdf}
}

// draw maps a uniform u in [0,1) to a 0-based rank.
func (z *zipfTable) draw(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// requestSeq is one connection's pre-drawn sequence of object indices.
type requestSeq struct {
	idx []uint16
	pos int
}

func (s *requestSeq) next() int {
	v := s.idx[s.pos]
	s.pos++
	if s.pos == len(s.idx) {
		s.pos = 0
	}
	return int(v)
}

// newZipfSeq draws worker's request sequence over the small objects. Every
// worker gets its own stream from (seed, worker), so the sequence does not
// depend on goroutine interleaving.
func newZipfSeq(z *zipfTable, seed int64, worker, n int) *requestSeq {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(worker) + 1))
	s := &requestSeq{idx: make([]uint16, n)}
	for i := range s.idx {
		s.idx[i] = uint16(z.draw(rng.Float64()))
	}
	return s
}

// newLargeSeq cycles /large/1..8 from a seeded starting offset, so a batch
// of eight always requests every large object once.
func newLargeSeq(seed int64, worker int) *requestSeq {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(worker) + 1))
	start := rng.Intn(largeObjects)
	s := &requestSeq{idx: make([]uint16, largeObjects)}
	for i := range s.idx {
		s.idx[i] = uint16((start + i) % largeObjects)
	}
	return s
}

// chromeHeaders is the 9-field Chrome-like request header list every
// request carries; field pathField is rewritten per request.
func chromeHeaders(authority string) []hpack.HeaderField {
	return []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: authority},
		{Name: ":path", Value: "/"},
		{Name: "user-agent", Value: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/51.0.2704.103 Safari/537.36"},
		{Name: "accept", Value: "text/html,application/xhtml+xml,application/xml;q=0.9,image/webp,*/*;q=0.8"},
		{Name: "accept-encoding", Value: "gzip, deflate, sdch, br"},
		{Name: "accept-language", Value: "en-US,en;q=0.8"},
		{Name: "cache-control", Value: "max-age=0"},
	}
}

const pathField = 3
