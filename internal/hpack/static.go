package hpack

// staticTable is the fixed 61-entry table of RFC 7541 Appendix A.
// staticTable[0] is index 1 on the wire.
var staticTable = [...]HeaderField{
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

// staticTableLen is the number of entries in the static table (61).
const staticTableLen = len(staticTable)

// pair keys the encoder's exact-match index.
type pair struct{ name, value string }

// staticRun is the span of 1-based static indices sharing one name; the
// table keeps equal names adjacent, and first is the name's wire index.
type staticRun struct{ first, last uint64 }

// staticNames maps a name to its run of static entries. One hash of the name
// answers both static questions: the name index is run.first, and an exact
// match can only be one of the run's (at most seven) entries.
var staticNames = buildStaticNames()

func buildStaticNames() map[string]staticRun {
	m := make(map[string]staticRun, staticTableLen)
	for i, hf := range staticTable {
		idx := uint64(i + 1)
		run, ok := m[hf.Name]
		if !ok {
			run.first = idx
		}
		run.last = idx
		m[hf.Name] = run
	}
	return m
}
