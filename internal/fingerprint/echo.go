package fingerprint

// Echo is the JSON document the testbed server's /fp endpoint returns:
// the server reading the client's own fingerprints back to it. TLS
// fields are empty over cleartext (prior-knowledge h2c) connections.
type Echo struct {
	// JA3/JA3Hash/JA4 fingerprint the TLS ClientHello.
	JA3     string `json:"ja3,omitempty"`
	JA3Hash string `json:"ja3_hash,omitempty"`
	JA4     string `json:"ja4,omitempty"`
	// SNI and ALPN echo the hello's server_name and negotiated protocol.
	SNI  string `json:"sni,omitempty"`
	ALPN string `json:"alpn,omitempty"`
	// JA4H fingerprints the request that fetched /fp.
	JA4H string `json:"ja4h"`
	// H2 is the connection's akamai-format behavioral fingerprint.
	H2 string `json:"h2"`
	// H2Detail is the structured form of H2.
	H2Detail *H2Fingerprint `json:"h2_detail,omitempty"`
}
