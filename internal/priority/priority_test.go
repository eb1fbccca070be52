package priority

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Stream IDs for the paper's Figure 1 example. Letters map to odd client
// stream IDs in request order: A=1, B=3, C=5, D=7, E=9, F=11.
const (
	sA = 1
	sB = 3
	sC = 5
	sD = 7
	sE = 9
	sF = 11
)

// buildFigure1Tree installs the dependencies of the paper's Table I:
// A depends on the root; B, C, D depend on A; E on B; F on D.
func buildFigure1Tree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree()
	deps := []struct {
		id     uint32
		parent uint32
	}{
		{sA, 0}, {sB, sA}, {sC, sA}, {sD, sA}, {sE, sB}, {sF, sD},
	}
	for _, d := range deps {
		if err := tr.Add(d.id, Param{StreamDep: d.parent, Weight: 0}); err != nil {
			t.Fatalf("Add(%d dep %d): %v", d.id, d.parent, err)
		}
	}
	return tr
}

func checkParent(t *testing.T, tr *Tree, id, want uint32) {
	t.Helper()
	got, ok := tr.Parent(id)
	if !ok {
		t.Fatalf("stream %d not in tree", id)
	}
	if got != want {
		t.Errorf("parent(%d) = %d, want %d", id, got, want)
	}
}

func TestFigure1InitialTree(t *testing.T) {
	tr := buildFigure1Tree(t)
	checkParent(t, tr, sA, 0)
	checkParent(t, tr, sB, sA)
	checkParent(t, tr, sC, sA)
	checkParent(t, tr, sD, sA)
	checkParent(t, tr, sE, sB)
	checkParent(t, tr, sF, sD)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1ExclusiveReprioritization(t *testing.T) {
	// Table II row 1: PRIORITY{stream A, parent B, exclusive}. Figure 1(2):
	// B moves up to the root, A becomes B's sole child, and B's former child
	// E joins A's children alongside C and D.
	tr := buildFigure1Tree(t)
	if err := tr.Update(sA, Param{StreamDep: sB, Weight: 0, Exclusive: true}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	checkParent(t, tr, sB, 0)
	checkParent(t, tr, sA, sB)
	if got := tr.Children(sB); !reflect.DeepEqual(got, []uint32{sA}) {
		t.Errorf("children(B) = %v, want [A] only (exclusive)", got)
	}
	if got := tr.Children(sA); !reflect.DeepEqual(got, []uint32{sC, sD, sE}) {
		t.Errorf("children(A) = %v, want [C D E]", got)
	}
	checkParent(t, tr, sF, sD)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1NonExclusiveReprioritization(t *testing.T) {
	// Table II row 2: PRIORITY{stream A, parent B, non-exclusive}.
	// Figure 1(3): B moves up to the root; A becomes a sibling of E under B;
	// C and D stay under A; F stays under D.
	tr := buildFigure1Tree(t)
	if err := tr.Update(sA, Param{StreamDep: sB, Weight: 0}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	checkParent(t, tr, sB, 0)
	checkParent(t, tr, sA, sB)
	checkParent(t, tr, sE, sB)
	if got := tr.Children(sB); !reflect.DeepEqual(got, []uint32{sA, sE}) {
		t.Errorf("children(B) = %v, want [A E]", got)
	}
	if got := tr.Children(sA); !reflect.DeepEqual(got, []uint32{sC, sD}) {
		t.Errorf("children(A) = %v, want [C D]", got)
	}
	checkParent(t, tr, sF, sD)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfDependencyRejected(t *testing.T) {
	tr := NewTree()
	if err := tr.Add(5, Param{StreamDep: 0}); err != nil {
		t.Fatal(err)
	}
	err := tr.Update(5, Param{StreamDep: 5})
	if !errors.Is(err, ErrSelfDependency) {
		t.Fatalf("Update self-dependency = %v, want ErrSelfDependency", err)
	}
	// The failed update must not corrupt the tree.
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	checkParent(t, tr, 5, 0)
}

func TestDependencyOnUnknownStreamCreatesPlaceholder(t *testing.T) {
	tr := NewTree()
	if err := tr.Add(3, Param{StreamDep: 99}); err != nil {
		t.Fatal(err)
	}
	checkParent(t, tr, 3, 99)
	checkParent(t, tr, 99, 0)
	if w, _ := tr.Weight(99); w != DefaultWeight {
		t.Errorf("placeholder weight = %d, want %d", w, DefaultWeight)
	}
}

func TestRemoveReassignsChildren(t *testing.T) {
	tr := buildFigure1Tree(t)
	tr.Remove(sB)
	checkParent(t, tr, sE, sA) // E inherits B's parent
	if tr.Contains(sB) {
		t.Error("removed stream still present")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDepth(t *testing.T) {
	tr := buildFigure1Tree(t)
	for _, tc := range []struct {
		id   uint32
		want int
	}{{sA, 1}, {sB, 2}, {sE, 3}, {sF, 3}} {
		if d, ok := tr.Depth(tc.id); !ok || d != tc.want {
			t.Errorf("Depth(%d) = %d,%v, want %d,true", tc.id, d, ok, tc.want)
		}
	}
}

func TestEligibleRespectsAncestors(t *testing.T) {
	tr := buildFigure1Tree(t)
	all := map[uint32]bool{sA: true, sB: true, sC: true, sD: true, sE: true, sF: true}
	ready := func(id uint32) bool { return all[id] }

	// With everything ready, only A (the sole top) is eligible.
	if got := tr.Eligible(ready); !reflect.DeepEqual(got, []uint32{sA}) {
		t.Errorf("Eligible = %v, want [A]", got)
	}
	// With A done, B, C, D become eligible.
	all[sA] = false
	if got := tr.Eligible(ready); !reflect.DeepEqual(got, []uint32{sB, sC, sD}) {
		t.Errorf("Eligible = %v, want [B C D]", got)
	}
	// With B also blocked, its child E becomes eligible.
	all[sB] = false
	if got := tr.Eligible(ready); !reflect.DeepEqual(got, []uint32{sC, sD, sE}) {
		t.Errorf("Eligible = %v, want [C D E]", got)
	}
}

func TestSchedulerDrainsParentFirst(t *testing.T) {
	tr := buildFigure1Tree(t)
	sched := NewScheduler(tr)
	remaining := map[uint32]int{sA: 2, sB: 2, sE: 1}
	ready := func(id uint32) bool { return remaining[id] > 0 }

	var order []uint32
	for {
		id, ok := sched.Pick(ready)
		if !ok {
			break
		}
		order = append(order, id)
		remaining[id]--
	}
	want := []uint32{sA, sA, sB, sB, sE}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("schedule order = %v, want %v", order, want)
	}
}

func TestSchedulerWeightedShares(t *testing.T) {
	// Two siblings with wire weights 199 (effective 200) and 49 (effective
	// 50) should be served roughly 4:1.
	tr := NewTree()
	if err := tr.Add(1, Param{StreamDep: 0, Weight: 199}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, Param{StreamDep: 0, Weight: 49}); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(tr)
	counts := map[uint32]int{}
	ready := func(uint32) bool { return true }
	for i := 0; i < 250; i++ {
		id, ok := sched.Pick(ready)
		if !ok {
			t.Fatal("Pick returned false with ready streams")
		}
		counts[id]++
	}
	if counts[1] != 200 || counts[3] != 50 {
		t.Errorf("quanta = %v, want map[1:200 3:50]", counts)
	}
}

func TestSchedulerSingleStreamFastPath(t *testing.T) {
	tr := NewTree()
	if err := tr.Add(7, Param{}); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(tr)
	id, ok := sched.Pick(func(id uint32) bool { return id == 7 })
	if !ok || id != 7 {
		t.Fatalf("Pick = %d,%v, want 7,true", id, ok)
	}
	if _, ok := sched.Pick(func(uint32) bool { return false }); ok {
		t.Error("Pick with nothing ready returned true")
	}
}

func TestRFC533DescendantParentExample(t *testing.T) {
	// RFC 7540 section 5.3.3's own example: x→A→{B,C}, C→{D,E}, F under D.
	// Reprioritizing A to depend on D first moves D up to A's old parent.
	tr := NewTree()
	mustAdd := func(id uint32, p Param) {
		t.Helper()
		if err := tr.Add(id, p); err != nil {
			t.Fatal(err)
		}
	}
	const (
		a, b, c, d, e, f = 1, 3, 5, 7, 9, 11
	)
	mustAdd(a, Param{StreamDep: 0})
	mustAdd(b, Param{StreamDep: a})
	mustAdd(c, Param{StreamDep: a})
	mustAdd(d, Param{StreamDep: c})
	mustAdd(e, Param{StreamDep: c})
	mustAdd(f, Param{StreamDep: d})

	// Non-exclusive: D moves to the root; A becomes D's child; F remains
	// D's child; B, C stay under A; E stays under C.
	if err := tr.Update(a, Param{StreamDep: d}); err != nil {
		t.Fatal(err)
	}
	checkParent(t, tr, d, 0)
	checkParent(t, tr, a, d)
	checkParent(t, tr, f, d)
	checkParent(t, tr, b, a)
	checkParent(t, tr, c, a)
	checkParent(t, tr, e, c)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRFC533DescendantParentExclusive(t *testing.T) {
	tr := NewTree()
	mustAdd := func(id uint32, p Param) {
		t.Helper()
		if err := tr.Add(id, p); err != nil {
			t.Fatal(err)
		}
	}
	const (
		a, b, c, d, e, f = 1, 3, 5, 7, 9, 11
	)
	mustAdd(a, Param{StreamDep: 0})
	mustAdd(b, Param{StreamDep: a})
	mustAdd(c, Param{StreamDep: a})
	mustAdd(d, Param{StreamDep: c})
	mustAdd(e, Param{StreamDep: c})
	mustAdd(f, Param{StreamDep: d})

	// Exclusive: as above, but A adopts D's previous children (F).
	if err := tr.Update(a, Param{StreamDep: d, Exclusive: true}); err != nil {
		t.Fatal(err)
	}
	checkParent(t, tr, d, 0)
	checkParent(t, tr, a, d)
	if got := tr.Children(d); !reflect.DeepEqual(got, []uint32{a}) {
		t.Errorf("children(D) = %v, want [A]", got)
	}
	checkParent(t, tr, f, a)
	checkParent(t, tr, b, a)
	checkParent(t, tr, c, a)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeInvariantsUnderRandomOps(t *testing.T) {
	// Property-style fuzzing of Add/Update/Remove with a seeded RNG: the
	// tree must satisfy Validate after every operation.
	rng := rand.New(rand.NewSource(42))
	tr := NewTree()
	ids := []uint32{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
	for op := 0; op < 5000; op++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(3) {
		case 0, 1:
			dep := uint32(0)
			if rng.Intn(2) == 0 {
				dep = ids[rng.Intn(len(ids))]
			}
			if dep == id {
				continue
			}
			err := tr.Update(id, Param{
				StreamDep: dep,
				Exclusive: rng.Intn(2) == 0,
				Weight:    uint8(rng.Intn(256)),
			})
			if err != nil {
				t.Fatalf("op %d: Update(%d dep %d): %v", op, id, dep, err)
			}
		case 2:
			tr.Remove(id)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

func TestTreeString(t *testing.T) {
	tr := buildFigure1Tree(t)
	out := tr.String()
	for _, want := range []string{"root", "stream 1", "stream 11 (weight 1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Depth: E (stream 9, child of B=3, child of A=1) is indented 3 levels.
	if !strings.Contains(out, "      stream 9") {
		t.Errorf("stream 9 not at depth 3:\n%s", out)
	}
}

func TestEligibleInvariantUnderRandomTrees(t *testing.T) {
	// Property: no eligible stream has a ready proper ancestor, and every
	// ready stream is either eligible or has a ready ancestor.
	rng := rand.New(rand.NewSource(99))
	ids := []uint32{1, 3, 5, 7, 9, 11, 13, 15}
	for trial := 0; trial < 300; trial++ {
		tr := NewTree()
		for _, id := range ids {
			dep := uint32(0)
			if rng.Intn(2) == 0 {
				dep = ids[rng.Intn(len(ids))]
			}
			if dep == id {
				dep = 0
			}
			if err := tr.Add(id, Param{StreamDep: dep, Exclusive: rng.Intn(2) == 0, Weight: uint8(rng.Intn(256))}); err != nil {
				t.Fatal(err)
			}
		}
		readySet := map[uint32]bool{}
		for _, id := range ids {
			readySet[id] = rng.Intn(2) == 0
		}
		ready := func(id uint32) bool { return readySet[id] }
		elig := tr.Eligible(ready)
		isElig := map[uint32]bool{}
		for _, id := range elig {
			isElig[id] = true
			if !readySet[id] {
				t.Fatalf("trial %d: eligible %d not ready", trial, id)
			}
			p, _ := tr.Parent(id)
			for p != 0 {
				if readySet[p] {
					t.Fatalf("trial %d: eligible %d has ready ancestor %d", trial, id, p)
				}
				p, _ = tr.Parent(p)
			}
		}
		for _, id := range ids {
			if !readySet[id] || isElig[id] {
				continue
			}
			hasReadyAncestor := false
			p, _ := tr.Parent(id)
			for p != 0 {
				if readySet[p] {
					hasReadyAncestor = true
					break
				}
				p, _ = tr.Parent(p)
			}
			if !hasReadyAncestor {
				t.Fatalf("trial %d: ready %d neither eligible nor blocked", trial, id)
			}
		}
	}
}

// TestPickZeroAlloc pins the steady-state scheduler pick at zero heap
// allocations: a full smooth-WRR round over several ready streams must not
// allocate.
func TestPickZeroAlloc(t *testing.T) {
	tr := NewTree()
	for _, id := range []uint32{1, 3, 5, 7} {
		if err := tr.Add(id, Param{Weight: uint8(id * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(tr)
	ready := func(uint32) bool { return true }
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.Pick(ready); !ok {
			t.Fatal("no stream picked")
		}
	})
	if allocs != 0 {
		t.Fatalf("Pick allocates %.1f times per op, want 0", allocs)
	}
}

// TestAddRemoveZeroAllocSteadyState pins the per-request stream churn —
// Add on HEADERS, Remove on close — at zero allocations once the node
// freelist is warm, even as stream IDs keep increasing like a real
// connection's do.
func TestAddRemoveZeroAllocSteadyState(t *testing.T) {
	tr := NewTree()
	id := uint32(1)
	// Warm the freelist and the ID-ordered slice with a burst of concurrent streams.
	for i := 0; i < 32; i++ {
		if err := tr.Add(id, Param{Weight: DefaultWeight}); err != nil {
			t.Fatal(err)
		}
		id += 2
	}
	for rm := uint32(1); rm < id; rm += 2 {
		tr.Remove(rm)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := tr.Add(id, Param{Weight: DefaultWeight}); err != nil {
			t.Fatal(err)
		}
		tr.Remove(id)
		id += 2
	})
	if allocs != 0 {
		t.Fatalf("Add+Remove allocates %.1f times per op, want 0", allocs)
	}
	if tr.Len() != 0 {
		t.Fatalf("tree left with %d streams, want 0", tr.Len())
	}
}

// TestBatchCycleZeroAlloc pins the shape a closed-loop client gives the
// scheduler — 32 streams enter the tree together, every Pick sends one
// stream's only quantum, the stream is removed — at zero allocations per
// batch once the node freelist and the ID-ordered slice have grown to 32,
// with stream IDs that keep increasing as a connection's do.
func TestBatchCycleZeroAlloc(t *testing.T) {
	const batch = 32
	tr := NewTree()
	s := NewScheduler(tr)
	// pending[slot] is the ready stream whose ID maps to slot, 0 for none.
	var pending [batch]uint32
	ready := func(id uint32) bool { return pending[id/2%batch] == id }
	next := uint32(1)
	cycle := func() {
		for i := 0; i < batch; i++ {
			if err := tr.Add(next, Param{Weight: DefaultWeight}); err != nil {
				t.Fatal(err)
			}
			pending[next/2%batch] = next
			next += 2
		}
		picks := 0
		for {
			id, ok := s.Pick(ready)
			if !ok {
				break
			}
			picks++
			pending[id/2%batch] = 0
			tr.Remove(id)
		}
		if picks != batch || tr.Len() != 0 {
			t.Fatalf("batch drained in %d picks leaving %d streams, want %d and 0", picks, tr.Len(), batch)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("Add → Pick → Remove over %d streams allocates %.1f times per batch, want 0", batch, allocs)
	}
}

// TestNodeRecycling checks that a removed stream's node is reused for the
// next added stream and carries no stale state across the recycle.
func TestNodeRecycling(t *testing.T) {
	tr := NewTree()
	if err := tr.Add(1, Param{Weight: 200}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, Param{StreamDep: 1, Weight: 100}); err != nil {
		t.Fatal(err)
	}
	old := tr.find(3)
	tr.Remove(3)
	tr.Remove(1)
	if err := tr.Add(5, Param{}); err != nil {
		t.Fatal(err)
	}
	n := tr.find(5)
	if n != old && n != tr.root {
		// Either recycled node is acceptable; just require recycling happened.
		if len(tr.free) == 2 {
			t.Fatal("freelist untouched: Add did not recycle a node")
		}
	}
	if n.weight != 0 || n.parent != tr.root || len(n.children) != 0 {
		t.Fatalf("recycled node has stale state: weight=%d parent=%v children=%d",
			n.weight, n.parent.id, len(n.children))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSchedulerPick measures one smooth-WRR pick over 16 ready root
// streams of differing weight.
func BenchmarkSchedulerPick(b *testing.B) {
	tree := NewTree()
	for id := uint32(1); id <= 32; id += 2 {
		if err := tree.Add(id, Param{Weight: uint8(id * 7)}); err != nil {
			b.Fatal(err)
		}
	}
	sched := NewScheduler(tree)
	ready := func(uint32) bool { return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sched.Pick(ready); !ok {
			b.Fatal("no pick")
		}
	}
}
