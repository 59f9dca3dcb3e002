package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every instrument in the Prometheus text
// exposition format (version 0.0.4), sorted by name: counters as
// `<name> <value>` with TYPE counter, gauges with TYPE gauge, and
// histograms as cumulative `<name>_bucket{le="..."}` series plus
// `<name>_sum` and `<name>_count`. Instruments registered through a
// Labeled view carry their label set (`name{route="stats"}`); the TYPE
// comment is emitted once per metric family (base name), not per series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	lastBase := ""
	writeType := func(base, kind string) error {
		if base == lastBase {
			return nil
		}
		lastBase = base
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, name := range sortedSeries(s.Counters) {
		base, labels := splitName(name)
		if err := writeType(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base, labels, s.Counters[name]); err != nil {
			return err
		}
	}
	lastBase = ""
	for _, name := range sortedSeries(s.Gauges) {
		base, labels := splitName(name)
		if err := writeType(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, formatFloat(s.Gauges[name])); err != nil {
			return err
		}
	}
	lastBase = ""
	for _, name := range sortedSeries(s.Histograms) {
		h := s.Histograms[name]
		base, labels := splitName(name)
		if err := writeType(base, "histogram"); err != nil {
			return err
		}
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabels(labels, "le="+strconv.Quote(formatFloat(bound))), cum); err != nil {
				return err
			}
		}
		cum += h.Buckets[len(h.Buckets)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n%s_sum%s %s\n%s_count%s %d\n",
			base, mergeLabels(labels, `le="+Inf"`), cum,
			base, labels, formatFloat(h.Sum),
			base, labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitName separates a registered instrument name into its base metric
// name and its label set (including braces), e.g.
// `mtshare_server_http_seconds{route="stats"}` ->
// (`mtshare_server_http_seconds`, `{route="stats"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabels appends extra labels (e.g. the histogram le bound) to an
// existing brace-wrapped label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedSeries orders registered names by (base name, label set) so every
// series of one metric family is contiguous — a plain string sort would
// interleave `foo_bar` between `foo` and `foo{...}` and split foo's TYPE
// group in two.
func sortedSeries[V any](m map[string]V) []string {
	keys := sortedKeys(m)
	sort.SliceStable(keys, func(i, j int) bool {
		bi, li := splitName(keys[i])
		bj, lj := splitName(keys[j])
		if bi != bj {
			return bi < bj
		}
		return li < lj
	})
	return keys
}
