package conformance

import (
	"testing"

	"h2scope/internal/attack"
)

// TestEveryAttackScenarioHasOneCheck holds the suite to the battery's
// catalog: each attack.Kinds entry is burst by exactly one suite check, so
// a scenario cannot join the catalog without its check, nor be checked
// twice.
func TestEveryAttackScenarioHasOneCheck(t *testing.T) {
	checks := make(map[attack.Kind]int)
	for _, a := range attackTable {
		checks[a.kind]++
	}
	for _, k := range attack.Kinds() {
		if checks[k] != 1 {
			t.Errorf("scenario %s has %d suite checks, want 1", k, checks[k])
		}
		delete(checks, k)
	}
	for k := range checks {
		t.Errorf("check row for %q, which is not in attack.Kinds", k)
	}
	inSuite := make(map[string]bool)
	for _, c := range Suite() {
		inSuite[c.ID] = true
	}
	for _, a := range attackTable {
		if !inSuite[a.id] {
			t.Errorf("%s is not in Suite", a.id)
		}
	}
}
