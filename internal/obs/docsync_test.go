package obs

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registration matches a metric registered with a literal name:
// reg.Counter("x"), reg.Gauge("x"), reg.GaugeFunc("x", ...),
// reg.Histogram("x", ...). A name built at runtime shows up as its
// literal prefix, which no table row matches, so the test refuses
// dynamically-suffixed metric names outright.
var registration = regexp.MustCompile(`\.(Counter|GaugeFunc|Gauge|Histogram)\("([a-z0-9_]+)"`)

// tableRow matches one row of the DESIGN.md §12 metrics table.
var tableRow = regexp.MustCompile("^\\| `([a-z0-9_]+)` \\| (counter|gauge|histogram) \\|$")

// TestDesignDocMetricsTableInSync is part of the `make lint-codes`
// gate: the DESIGN.md §12 metrics table must list exactly the metric
// names internal/ registers statically, each at its registered kind.
// A metric added without a row — or a row whose metric was renamed
// away — fails here, so the operator-facing registry documentation
// cannot rot.
func TestDesignDocMetricsTableInSync(t *testing.T) {
	inSource := map[string]string{}
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range registration.FindAllStringSubmatch(string(data), -1) {
			name := m[2]
			kind := strings.ToLower(strings.TrimSuffix(m[1], "Func"))
			if prev, ok := inSource[name]; ok && prev != kind {
				t.Errorf("%s registered as both %s and %s", name, prev, kind)
			}
			inSource[name] = kind
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inSource) == 0 {
		t.Fatal("no metric registrations found under internal/")
	}

	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	var order []string
	for _, line := range strings.Split(string(data), "\n") {
		m := tableRow.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		if _, dup := documented[m[1]]; dup {
			t.Errorf("DESIGN.md documents %s twice", m[1])
		}
		documented[m[1]] = m[2]
		order = append(order, m[1])
	}
	if len(documented) == 0 {
		t.Fatal("no metrics table rows found in DESIGN.md §12")
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("DESIGN.md metrics table out of name order: %v", order)
	}

	for name, kind := range inSource {
		doc, ok := documented[name]
		if !ok {
			t.Errorf("DESIGN.md §12 is missing a row for %s (%s)", name, kind)
			continue
		}
		if doc != kind {
			t.Errorf("DESIGN.md documents %s as %q, source registers a %s", name, doc, kind)
		}
		delete(documented, name)
	}
	for name := range documented {
		t.Errorf("DESIGN.md documents %s but nothing registers it", name)
	}
}
