package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"h2scope/internal/hpack"
)

// JSON (de)serialization for Profile enums, so custom behavior profiles can
// be written as human-editable files (cmd/h2server -profile-file) and scan
// records stay readable. Enums serialize as their String() names.

// MarshalJSON encodes the reaction as its Table III name.
func (r Reaction) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(r.String())), nil
}

// UnmarshalJSON decodes a Table III reaction name.
func (r *Reaction) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("server: reaction %s: %w", data, err)
	}
	for _, cand := range []Reaction{ReactIgnore, ReactRSTStream, ReactGoAway} {
		if cand.String() == s {
			*r = cand
			return nil
		}
	}
	return fmt.Errorf("server: unknown reaction %q", s)
}

// MarshalJSON encodes the scheduling mode by name.
func (m SchedulingMode) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(m.String())), nil
}

// UnmarshalJSON decodes a scheduling-mode name.
func (m *SchedulingMode) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("server: scheduling mode %s: %w", data, err)
	}
	modes := []SchedulingMode{
		SchedRoundRobin, SchedPriority, SchedPriorityLastOnly,
		SchedPriorityFirstOnly, SchedSequential,
	}
	for _, cand := range modes {
		if cand.String() == s {
			*m = cand
			return nil
		}
	}
	return fmt.Errorf("server: unknown scheduling mode %q", s)
}

// tinyWindowNames maps behaviors to stable JSON names.
var tinyWindowNames = map[TinyWindowBehavior]string{
	TinyWindowComply:   "comply",
	TinyWindowZeroData: "zero-data",
	TinyWindowSilent:   "silent",
}

// MarshalJSON encodes the tiny-window behavior by name.
func (b TinyWindowBehavior) MarshalJSON() ([]byte, error) {
	name, ok := tinyWindowNames[b]
	if !ok {
		return nil, fmt.Errorf("server: unknown tiny-window behavior %d", b)
	}
	return []byte(strconv.Quote(name)), nil
}

// UnmarshalJSON decodes a tiny-window behavior name.
func (b *TinyWindowBehavior) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("server: tiny-window behavior %s: %w", data, err)
	}
	for cand, name := range tinyWindowNames {
		if name == s {
			*b = cand
			return nil
		}
	}
	return fmt.Errorf("server: unknown tiny-window behavior %q", s)
}

// profileJSON mirrors Profile with the HPACK policy flattened to a name;
// hpack.IndexingPolicy lives in another package, so the alias keeps its
// wire form here.
type profileJSON struct {
	Profile
	HPACKPolicy string `json:"HPACKPolicy"`
}

var hpackPolicyNames = map[hpack.IndexingPolicy]string{
	hpack.PolicyIndexAll:        "index-all",
	hpack.PolicyNoDynamicInsert: "no-dynamic-insert",
	hpack.PolicyIndexPartial:    "partial",
}

// MarshalProfile encodes a profile as indented JSON.
func MarshalProfile(p Profile) ([]byte, error) {
	name, ok := hpackPolicyNames[p.HPACKPolicy]
	if !ok {
		return nil, fmt.Errorf("server: unknown HPACK policy %d", p.HPACKPolicy)
	}
	out := profileJSON{Profile: p, HPACKPolicy: name}
	out.Profile.HPACKPolicy = 0 // superseded by the named field
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalProfile decodes a profile written by MarshalProfile (or by hand).
// Every key must be one MarshalProfile writes, spelt exactly: encoding/json on
// its own drops keys it does not know and matches the rest whatever their
// case, so a misspelt or removed field would leave its default in force
// without a word.
func UnmarshalProfile(data []byte) (Profile, error) {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return Profile{}, fmt.Errorf("server: decoding profile: %w", err)
	}
	p := in.Profile
	found := false
	for policy, name := range hpackPolicyNames {
		if name == in.HPACKPolicy {
			p.HPACKPolicy = policy
			found = true
		}
	}
	if !found {
		return Profile{}, fmt.Errorf("server: unknown HPACK policy %q", in.HPACKPolicy)
	}
	var keys, known map[string]json.RawMessage
	canon, err := MarshalProfile(p)
	if err == nil {
		err = json.Unmarshal(canon, &known)
	}
	if err == nil {
		err = json.Unmarshal(data, &keys)
	}
	if err != nil {
		return Profile{}, fmt.Errorf("server: decoding profile: %w", err)
	}
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		if _, ok := known[k]; !ok {
			return Profile{}, fmt.Errorf("server: decoding profile: unknown field %q", k)
		}
	}
	return p, nil
}
