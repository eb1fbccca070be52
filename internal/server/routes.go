package server

import (
	"fmt"
	"strconv"

	"h2scope/internal/hpack"
)

// This file is the no-map/no-string-churn dispatch table behind the server's
// zero-alloc request path. At construction time every site resource is
// compiled into a routeEntry carrying its fully-built response header list
// (status, etag, content-length — everything responseHeaders would otherwise
// format per request) and its resolved push manifest. The hot path then
// binary-searches the sorted entry slice by :path and aliases the
// precomputed slices into the stream, allocating nothing.

// notFoundBody is the shared 404 payload.
var notFoundBody = []byte("<html><body><h1>404 Not Found</h1></body></html>")

// routeEntry is one compiled route: the resource plus its prebuilt response
// header list and resolved push targets.
type routeEntry struct {
	path string
	res  *Resource
	// fields is the complete response header list, built once. Hot-path
	// streams alias it and must never mutate it.
	fields []hpack.HeaderField
	// pushes indexes the push-manifest targets into routeTable.entries,
	// resolved at build time so the hot path does no site lookups.
	pushes []pushRoute
}

// pushRoute is one resolved push-manifest target.
type pushRoute struct {
	// reqFields is the synthetic request header list carried by the
	// PUSH_PROMISE frame.
	reqFields []hpack.HeaderField
	// target indexes the pushed resource's entry in routeTable.entries.
	target int
}

// routeTable is the compiled dispatch table for one (profile, site) pair.
type routeTable struct {
	// entries is sorted ascending by path for binary search.
	entries []routeEntry
	// notFound is the prebuilt 404 response.
	notFound routeEntry
}

// buildRoutes compiles the site's document tree against the profile's
// response identity. Site is immutable once serving starts, so the table is
// complete: a path absent from it is a 404.
func buildRoutes(p *Profile, site *Site) *routeTable {
	paths := site.Paths()
	rt := &routeTable{entries: make([]routeEntry, 0, len(paths))}
	for _, path := range paths {
		res, _ := site.Lookup(path)
		rt.entries = append(rt.entries, routeEntry{
			path:   path,
			res:    res,
			fields: buildResponseFields(p.Name, "200", res.ContentType, len(res.Body), res.ExtraHeaders),
		})
	}
	// Resolve push manifests to entry indexes now that the slice is final.
	for i := range rt.entries {
		e := &rt.entries[i]
		for _, pushPath := range e.res.Push {
			j := rt.index(pushPath)
			if j < 0 {
				continue
			}
			e.pushes = append(e.pushes, pushRoute{
				reqFields: []hpack.HeaderField{
					{Name: ":method", Value: "GET"},
					{Name: ":scheme", Value: "https"},
					{Name: ":authority", Value: site.Domain},
					{Name: ":path", Value: pushPath},
				},
				target: j,
			})
		}
	}
	rt.notFound = routeEntry{
		res:    &Resource{ContentType: "text/html; charset=utf-8", Body: notFoundBody},
		fields: buildResponseFields(p.Name, "404", "text/html; charset=utf-8", len(notFoundBody), nil),
	}
	return rt
}

// index returns the entry index for path, or -1.
func (rt *routeTable) index(path string) int {
	lo, hi := 0, len(rt.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rt.entries[mid].path < path {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(rt.entries) && rt.entries[lo].path == path {
		return lo
	}
	return -1
}

// lookup binary-searches the table by request path.
//
//h2:hotpath — the per-request route dispatch.
func (rt *routeTable) lookup(path string) *routeEntry {
	if i := rt.index(path); i >= 0 {
		return &rt.entries[i]
	}
	return nil
}

// buildResponseFields constructs a realistic response header list. Values
// are deterministic so repeated identical requests produce byte-identical
// header blocks — the precondition of the paper's HPACK ratio experiment.
func buildResponseFields(serverName, status, contentType string, bodyLen int, extra []hpack.HeaderField) []hpack.HeaderField {
	fields := []hpack.HeaderField{
		{Name: ":status", Value: status},
		{Name: "server", Value: serverName},
		{Name: "date", Value: fixedDate},
		{Name: "content-type", Value: contentType},
		{Name: "content-length", Value: strconv.Itoa(bodyLen)},
		{Name: "last-modified", Value: fixedDate},
		{Name: "etag", Value: fmt.Sprintf("%q", strconv.FormatInt(int64(bodyLen)*2654435761, 36))},
		{Name: "accept-ranges", Value: "bytes"},
		{Name: "vary", Value: "accept-encoding"},
	}
	return append(fields, extra...)
}
