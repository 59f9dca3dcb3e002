package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one reading of the server's GET /v1/metrics: series name,
// labels included (`mtshare_server_http_seconds_sum{route="requests"}`),
// to value.
type scrape map[string]float64

// parseScrape reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a sample line is `name[{labels}] value`, the
// value being the last space-separated field so label values may hold
// spaces.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sub is the change of every series between two readings of one server.
// Counters and histogram sums/counts become the phase's own totals;
// gauges become their drift, so read gauges from the later reading.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// histMean is sum/count of a histogram family in this reading, 0 when it
// observed nothing. labels is either empty or a `{...}` suffix.
func (s scrape) histMean(family, labels string) float64 {
	return ratio(s[family+"_sum"+labels], s[family+"_count"+labels])
}
