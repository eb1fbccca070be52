// Package priority implements the HTTP/2 stream prioritization model of
// RFC 7540 section 5.3: the dependency tree, exclusive and non-exclusive
// (re)prioritization including the descendant-parent corner case, and a
// weighted scheduler a server can use to order DATA transmission.
//
// The paper's Algorithm 1 infers whether a remote server implements this
// machinery by observing response ordering; our server's priority-aware
// profiles use this package, and its FCFS profiles bypass it, reproducing
// the pass/fail split in Table III.
package priority

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// DefaultWeight is the wire-format default weight (16 effective, RFC 7540
// section 5.3.5 — wire value is effective weight minus one).
const DefaultWeight = 15

// ErrSelfDependency reports a stream declared dependent on itself, which
// RFC 7540 section 5.3.1 defines as a stream error of type PROTOCOL_ERROR.
var ErrSelfDependency = errors.New("priority: stream depends on itself")

// Param mirrors the prioritization fields of HEADERS and PRIORITY frames.
type Param struct {
	// StreamDep is the parent stream ID; 0 is the virtual root.
	StreamDep uint32
	// Exclusive makes the stream the sole dependency of its parent.
	Exclusive bool
	// Weight is the wire-format weight (0-255, effective weight 1-256).
	Weight uint8
}

type node struct {
	id       uint32
	weight   uint8
	parent   *node
	children []*node
	// credit is the stream's smooth weighted round-robin balance. It lives
	// on the node so a pick touches no map, and it dies with the node:
	// Remove zeroes it, so a recycled node or a re-added ID starts level.
	credit int64
}

func (n *node) removeChild(c *node) {
	for i, ch := range n.children {
		if ch == c {
			n.children = append(n.children[:i], n.children[i+1:]...)
			return
		}
	}
}

// isDescendantOf reports whether n sits strictly below anc.
func (n *node) isDescendantOf(anc *node) bool {
	for p := n.parent; p != nil; p = p.parent {
		if p == anc {
			return true
		}
	}
	return false
}

// Tree is an HTTP/2 stream dependency tree rooted at virtual stream 0.
// Tree is not safe for concurrent use; the owning connection serializes
// access.
type Tree struct {
	root *node
	// byID holds every non-root node in ascending stream-ID order. It is
	// the tree's only index: lookups binary-search it, and the scheduler
	// walks it, so the eligible set comes out sorted without a sort.
	// Client stream IDs only grow, so the usual insert is an append.
	byID []*node
	// free recycles removed nodes so the steady-state open/close churn of
	// request streams does not allocate: Remove pushes, get pops. Child
	// slices are truncated, not released, so their capacity amortizes too.
	free []*node
}

// NewTree returns an empty dependency tree.
func NewTree() *Tree {
	return &Tree{root: &node{id: 0}}
}

// Len returns the number of streams in the tree, excluding the root.
func (t *Tree) Len() int { return len(t.byID) }

// Contains reports whether stream id is in the tree.
func (t *Tree) Contains(id uint32) bool { return t.find(id) != nil }

// search returns the position of stream id in byID — or, when it is not
// there, the position it would be inserted at — and whether it is there.
func (t *Tree) search(id uint32) (int, bool) {
	lo, hi := 0, len(t.byID)
	if hi > 0 && t.byID[hi-1].id < id {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.byID[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.byID) && t.byID[lo].id == id
}

// find returns the node for id (the root for 0), or nil when the stream is
// not in the tree.
func (t *Tree) find(id uint32) *node {
	if id == 0 {
		return t.root
	}
	if i, ok := t.search(id); ok {
		return t.byID[i]
	}
	return nil
}

// get returns the node for id, creating an idle placeholder under the root
// when the stream is unknown (RFC 7540 section 5.3.4 allows dependencies on
// streams in any state). Removed nodes are recycled before new ones are
// allocated, keeping the per-request open/close cycle allocation-free.
func (t *Tree) get(id uint32) *node {
	if id == 0 {
		return t.root
	}
	i, ok := t.search(id)
	if ok {
		return t.byID[i]
	}
	var n *node
	if len(t.free) > 0 {
		n = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		n.id, n.weight, n.parent = id, DefaultWeight, t.root
	} else {
		n = &node{id: id, weight: DefaultWeight, parent: t.root}
	}
	t.root.children = append(t.root.children, n)
	t.byID = append(t.byID, nil)
	copy(t.byID[i+1:], t.byID[i:])
	t.byID[i] = n
	return n
}

// Add inserts stream id with the given prioritization, as carried by a
// HEADERS frame. Adding an existing stream reprioritizes it.
func (t *Tree) Add(id uint32, p Param) error {
	if id == 0 {
		return fmt.Errorf("priority: cannot add stream 0")
	}
	if p.StreamDep == id {
		return fmt.Errorf("%w: stream %d", ErrSelfDependency, id)
	}
	n := t.get(id)
	t.reparent(n, p)
	return nil
}

// Update reprioritizes stream id, as carried by a PRIORITY frame. Unknown
// streams are created idle first, per RFC 7540 section 5.3.4.
func (t *Tree) Update(id uint32, p Param) error {
	return t.Add(id, p)
}

// reparent implements RFC 7540 section 5.3.3.
func (t *Tree) reparent(n *node, p Param) {
	newParent := t.get(p.StreamDep)
	// If the new parent is currently a descendant of n, it is first moved
	// to be dependent on n's current parent, retaining its weight.
	if newParent.isDescendantOf(n) {
		newParent.parent.removeChild(newParent)
		newParent.parent = n.parent
		n.parent.children = append(n.parent.children, newParent)
	}
	n.parent.removeChild(n)
	if p.Exclusive {
		// n adopts all of newParent's current children.
		for _, c := range newParent.children {
			c.parent = n
		}
		n.children = append(n.children, newParent.children...)
		newParent.children = newParent.children[:0]
	}
	n.parent = newParent
	n.weight = p.Weight
	newParent.children = append(newParent.children, n)
}

// Remove closes stream id. Its children are reassigned to its parent,
// keeping their weights (a simplification of the proportional redistribution
// RFC 7540 section 5.3.4 suggests; ordering-relevant structure is preserved).
func (t *Tree) Remove(id uint32) {
	i, ok := t.search(id)
	if !ok {
		return
	}
	n := t.byID[i]
	n.parent.removeChild(n)
	for _, c := range n.children {
		c.parent = n.parent
		n.parent.children = append(n.parent.children, c)
	}
	last := len(t.byID) - 1
	copy(t.byID[i:], t.byID[i+1:])
	t.byID[last] = nil
	t.byID = t.byID[:last]
	n.parent = nil
	n.children = n.children[:0]
	n.credit = 0
	t.free = append(t.free, n)
}

// Parent returns the parent stream of id (0 for root-attached streams) and
// whether the stream exists.
func (t *Tree) Parent(id uint32) (uint32, bool) {
	n := t.find(id)
	if n == nil || n.parent == nil {
		return 0, n != nil
	}
	return n.parent.id, true
}

// Weight returns the wire-format weight of stream id.
func (t *Tree) Weight(id uint32) (uint8, bool) {
	n := t.find(id)
	if n == nil {
		return 0, false
	}
	return n.weight, true
}

// Children returns the stream IDs directly dependent on id, sorted.
func (t *Tree) Children(id uint32) []uint32 {
	n := t.find(id)
	if n == nil {
		return nil
	}
	out := make([]uint32, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depth returns the number of edges between id and the root.
func (t *Tree) Depth(id uint32) (int, bool) {
	n := t.find(id)
	if n == nil {
		return 0, false
	}
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d, true
}

// Eligible returns, in deterministic order, the streams for which ready
// returns true and none of whose proper ancestors (other than the root) are
// also ready. Per RFC 7540 section 5.3.1, a dependent stream should only be
// allocated resources when its ancestors are closed or blocked.
func (t *Tree) Eligible(ready func(uint32) bool) []uint32 {
	return t.AppendEligible(nil, ready)
}

// AppendEligible is the allocation-free form of Eligible: it appends the
// eligible set to dst (sorted ascending) and returns the extended slice.
// Callers on the hot path pass a retained scratch slice truncated to zero.
func (t *Tree) AppendEligible(dst []uint32, ready func(uint32) bool) []uint32 {
	for _, n := range t.byID {
		if t.eligible(n, ready) {
			dst = append(dst, n.id)
		}
	}
	return dst
}

// eligible reports whether n is ready and no proper ancestor below the root
// is.
func (t *Tree) eligible(n *node, ready func(uint32) bool) bool {
	if !ready(n.id) {
		return false
	}
	for p := n.parent; p != t.root; p = p.parent {
		if ready(p.id) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants (used by property tests): every
// non-root node has a parent, parent/child links are symmetric, and the
// graph is acyclic.
func (t *Tree) Validate() error {
	if t.root.parent != nil {
		return errors.New("priority: root has a parent")
	}
	for i, n := range t.byID {
		if n.id == 0 || i > 0 && t.byID[i-1].id >= n.id {
			return fmt.Errorf("priority: stream %d out of ID order at position %d", n.id, i)
		}
		if n.parent == nil {
			return fmt.Errorf("priority: stream %d has no parent", n.id)
		}
		found := false
		for _, c := range n.parent.children {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("priority: stream %d missing from parent %d child list", n.id, n.parent.id)
		}
		// Cycle check: walking up must reach the root within Len()+1 hops.
		hops := 0
		for p := n; p != nil; p = p.parent {
			if hops > len(t.byID)+1 {
				return fmt.Errorf("priority: cycle reachable from stream %d", n.id)
			}
			hops++
		}
	}
	return nil
}

// Scheduler orders transmission among ready streams using the dependency
// tree and smooth weighted round-robin among eligible siblings. Its state is
// the credit on the tree's nodes, so a stream's credit goes when Tree.Remove
// takes the node.
type Scheduler struct {
	tree *Tree
	// eligible is the size of the eligible set the last Pick saw.
	eligible int
}

// NewScheduler returns a scheduler over tree. The tree may keep changing;
// the scheduler reads it on every pick.
func NewScheduler(tree *Tree) *Scheduler {
	return &Scheduler{tree: tree}
}

// Pick selects the next stream to transmit a quantum for, among streams for
// which ready returns true. It returns false when nothing is eligible.
//
// Selection is smooth weighted round-robin over the eligible set: each
// eligible stream earns credit equal to its effective weight, the stream
// with the highest credit wins (ties break toward the lowest stream ID),
// and the winner is charged the total weight of the round. A lone eligible
// stream is charged what it just earned, so its credit does not move.
func (s *Scheduler) Pick(ready func(uint32) bool) (uint32, bool) {
	var (
		best  *node
		total int64
	)
	s.eligible = 0
	for _, n := range s.tree.byID {
		if !s.tree.eligible(n, ready) {
			continue
		}
		s.eligible++
		eff := int64(n.weight) + 1
		n.credit += eff
		total += eff
		if best == nil || n.credit > best.credit {
			best = n
		}
	}
	if best == nil {
		return 0, false
	}
	best.credit -= total
	return best.id, true
}

// Eligible returns the size of the eligible set the last Pick chose from —
// what the egress ready-stream histogram records, at no second tree walk.
func (s *Scheduler) Eligible() int { return s.eligible }

// Forget clears the credit of a stream that stays in the tree. Tree.Remove
// already drops a stream's credit with its node, so a closed stream needs no
// Forget.
func (s *Scheduler) Forget(id uint32) {
	if n := s.tree.find(id); n != nil {
		n.credit = 0
	}
}

// String renders the tree as an indented outline, children sorted by ID —
// a debugging aid for Algorithm 1's reprioritization steps.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		if n.id == 0 {
			b.WriteString("root\n")
		} else {
			fmt.Fprintf(&b, "stream %d (weight %d)\n", n.id, int(n.weight)+1)
		}
		children := append([]*node(nil), n.children...)
		sort.Slice(children, func(i, j int) bool { return children[i].id < children[j].id })
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}
