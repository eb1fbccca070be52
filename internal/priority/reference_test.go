package priority

import (
	"math/rand"
	"testing"
)

// This file keeps the tree and scheduler this package had before the
// ID-ordered node slice — nodes found through a map, the eligible set
// gathered by walking that map and insertion-sorting the result, credit in a
// map of its own that a closed stream has to be told to Forget — as the
// oracle Pick must match choice for choice. It shares no code with the
// package under test.

type refNode struct {
	id       uint32
	weight   uint8
	parent   *refNode
	children []*refNode
}

func (n *refNode) removeChild(c *refNode) {
	for i, ch := range n.children {
		if ch == c {
			n.children = append(n.children[:i], n.children[i+1:]...)
			return
		}
	}
}

func (n *refNode) isDescendantOf(anc *refNode) bool {
	for p := n.parent; p != nil; p = p.parent {
		if p == anc {
			return true
		}
	}
	return false
}

type refTree struct {
	root  *refNode
	nodes map[uint32]*refNode
}

func newRefTree() *refTree {
	root := &refNode{}
	return &refTree{root: root, nodes: map[uint32]*refNode{0: root}}
}

func (t *refTree) get(id uint32) *refNode {
	if n, ok := t.nodes[id]; ok {
		return n
	}
	n := &refNode{id: id, weight: DefaultWeight, parent: t.root}
	t.root.children = append(t.root.children, n)
	t.nodes[id] = n
	return n
}

func (t *refTree) add(id uint32, p Param) {
	n := t.get(id)
	newParent := t.get(p.StreamDep)
	if newParent.isDescendantOf(n) {
		newParent.parent.removeChild(newParent)
		newParent.parent = n.parent
		n.parent.children = append(n.parent.children, newParent)
	}
	n.parent.removeChild(n)
	if p.Exclusive {
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

func (t *refTree) remove(id uint32) {
	n, ok := t.nodes[id]
	if !ok || id == 0 {
		return
	}
	n.parent.removeChild(n)
	for _, c := range n.children {
		c.parent = n.parent
		n.parent.children = append(n.parent.children, c)
	}
	delete(t.nodes, id)
}

func (t *refTree) appendEligible(dst []uint32, ready func(uint32) bool) []uint32 {
	for id, n := range t.nodes {
		if id == 0 || !ready(id) {
			continue
		}
		blocked := false
		for p := n.parent; p != nil && p.id != 0; p = p.parent {
			if ready(p.id) {
				blocked = true
				break
			}
		}
		if !blocked {
			dst = append(dst, id)
		}
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

type refScheduler struct {
	tree   *refTree
	credit map[uint32]int64
}

func (s *refScheduler) pick(ready func(uint32) bool) (id uint32, eligible int, ok bool) {
	elig := s.tree.appendEligible(nil, ready)
	if len(elig) == 0 {
		return 0, 0, false
	}
	if len(elig) == 1 {
		return elig[0], 1, true
	}
	var total int64
	for _, id := range elig {
		eff := int64(s.tree.nodes[id].weight) + 1
		s.credit[id] += eff
		total += eff
	}
	best := elig[0]
	for _, id := range elig[1:] {
		if s.credit[id] > s.credit[best] {
			best = id
		}
	}
	s.credit[best] -= total
	return best, len(elig), true
}

func (s *refScheduler) forget(id uint32) { delete(s.credit, id) }

// TestPickMatchesReference runs random connections' worth of operations —
// streams opened with random dependencies, weights and exclusivity,
// reprioritised, closed, their IDs opened again, against a ready set that
// keeps changing — through the tree and the reference side by side. Every
// pick, every eligible set and its size must agree. The reference is told to
// forget a stream when it is removed, as the server always did; the tree
// under test gets Remove alone.
func TestPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7540))
	for trial := 0; trial < 200; trial++ {
		tr, ref := NewTree(), newRefTree()
		sched, refSched := NewScheduler(tr), &refScheduler{tree: ref, credit: map[uint32]int64{}}
		// A small ID space makes closed IDs come back and dependencies land
		// on live, closed and never-seen streams alike.
		const idSpace = 24
		randID := func() uint32 { return uint32(1 + rng.Intn(idSpace)) }
		readySet := map[uint32]bool{}
		ready := func(id uint32) bool { return readySet[id] }

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // open or reprioritise
				id, dep := randID(), uint32(rng.Intn(idSpace+1))
				if dep == id {
					dep = 0
				}
				p := Param{StreamDep: dep, Exclusive: rng.Intn(3) == 0, Weight: uint8(rng.Intn(256))}
				if err := tr.Add(id, p); err != nil {
					t.Fatal(err)
				}
				ref.add(id, p)
			case op < 5: // close
				id := randID()
				tr.Remove(id)
				ref.remove(id)
				refSched.forget(id)
			case op < 6: // the ready set changes
				readySet[randID()] = rng.Intn(3) > 0
			default:
				wantID, wantEligible, wantOK := refSched.pick(ready)
				id, ok := sched.Pick(ready)
				if id != wantID || ok != wantOK {
					t.Fatalf("trial %d step %d: Pick = %d,%v, reference %d,%v\n%s", trial, step, id, ok, wantID, wantOK, tr)
				}
				if sched.Eligible() != wantEligible {
					t.Fatalf("trial %d step %d: Eligible = %d, reference %d", trial, step, sched.Eligible(), wantEligible)
				}
				// A stream that has sent its last quantum closes.
				if ok && rng.Intn(4) == 0 {
					tr.Remove(id)
					ref.remove(id)
					refSched.forget(id)
					delete(readySet, id)
				}
			}
			if tr.Len() != len(ref.nodes)-1 {
				t.Fatalf("trial %d step %d: %d streams, reference %d", trial, step, tr.Len(), len(ref.nodes)-1)
			}
		}
		got, want := tr.Eligible(ready), ref.appendEligible(nil, ready)
		if len(got) != len(want) {
			t.Fatalf("trial %d: eligible %v, reference %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: eligible %v, reference %v", trial, got, want)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
