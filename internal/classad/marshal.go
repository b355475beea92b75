package classad

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The wire protocol carries classads in their native source syntax,
// wrapped in JSON envelopes. These helpers centralize that mapping and
// also provide a structured JSON form (attribute name → unparsed
// expression) for tooling that wants to inspect ads without a classad
// parser.

// MarshalText renders the ad in canonical single-line source form.
func (a *Ad) MarshalText() ([]byte, error) {
	return []byte(a.String()), nil
}

// UnmarshalText parses an ad from source form, replacing the receiver's
// contents.
func (a *Ad) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*a = *parsed
	return nil
}

// MarshalJSON encodes the ad as a JSON object mapping each attribute
// name (defining case) to the unparsed text of its expression, with a
// reserved "_order" key preserving insertion order so the round trip
// is faithful.
func (a *Ad) MarshalJSON() ([]byte, error) {
	obj := make(map[string]string, a.Len()+1)
	for _, n := range a.Names() {
		e, _ := a.Lookup(n)
		obj[n] = e.String()
	}
	type wire struct {
		Order []string          `json:"_order"`
		Attrs map[string]string `json:"attrs"`
	}
	return json.Marshal(wire{Order: a.Names(), Attrs: obj})
}

// UnmarshalJSON decodes the form produced by MarshalJSON.
func (a *Ad) UnmarshalJSON(data []byte) error {
	type wire struct {
		Order []string          `json:"_order"`
		Attrs map[string]string `json:"attrs"`
	}
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := NewAd()
	seen := make(map[string]bool, len(w.Order))
	for _, n := range w.Order {
		src, ok := w.Attrs[n]
		if !ok {
			return fmt.Errorf("classad: json order lists %q but attrs omits it", n)
		}
		e, err := ParseExpr(src)
		if err != nil {
			return fmt.Errorf("classad: attribute %q: %w", n, err)
		}
		out.Set(n, e)
		seen[Fold(n)] = true
	}
	// Attributes present but not ordered (hand-written JSON) append
	// in map order; sort for determinism.
	var extra []string
	for n := range w.Attrs {
		if !seen[Fold(n)] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		e, err := ParseExpr(w.Attrs[n])
		if err != nil {
			return fmt.Errorf("classad: attribute %q: %w", n, err)
		}
		out.Set(n, e)
	}
	*a = *out
	return nil
}
