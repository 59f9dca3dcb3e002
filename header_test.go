package mtshare

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/match"
	"repro/internal/replay"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/wal"
)

// TestHeaderBytes pins the header line of every configuration whose
// header is a compatibility contract: the two golden logs and the WALs
// the facade's durability tests, the server's crash harness, the
// benchmark's durable workload and the runtime's fault-plan tests open.
// Recovery refuses a WAL whose record 0 differs by one byte from the
// header its configuration builds, and a golden replays only against the
// header it was recorded under. Each header must also decode and
// re-encode through replay.Header unchanged.
func TestHeaderBytes(t *testing.T) {
	cases := []struct {
		name string
		got  func(t *testing.T) string
		want string
	}{
		{
			name: "golden uniform, checked in",
			got:  func(t *testing.T) string { return goldenHeader(t, "uniform") },
			want: `{"version":3,"kind":"system","seed":7,"rows":12,"cols":12,"speed_kmh":15,"max_direction_deg":45,"graph_fp":"382d92915c061bc0"}`,
		},
		{
			name: "golden uniform, recorded",
			got:  func(t *testing.T) string { return recordedHeader(t, "uniform") },
			want: `{"version":3,"kind":"system","seed":7,"rows":12,"cols":12,"speed_kmh":15,"max_direction_deg":45,"graph_fp":"382d92915c061bc0"}`,
		},
		{
			name: "golden peakhour, checked in",
			got:  func(t *testing.T) string { return goldenHeader(t, "peakhour") },
			want: `{"version":3,"kind":"system","seed":8,"rows":12,"cols":12,"speed_kmh":15,"max_direction_deg":45,"queue_depth":16,"retry_every_ticks":2,"graph_fp":"d195b619b1823002"}`,
		},
		{
			name: "golden peakhour, recorded",
			got:  func(t *testing.T) string { return recordedHeader(t, "peakhour") },
			want: `{"version":3,"kind":"system","seed":8,"rows":12,"cols":12,"speed_kmh":15,"max_direction_deg":45,"queue_depth":16,"retry_every_ticks":2,"graph_fp":"d195b619b1823002"}`,
		},
		{
			name: "facade durability tests",
			got: func(t *testing.T) string {
				opts := durableBaseOptions(1)
				opts.Durability = DurabilityOptions{Dir: t.TempDir(), SyncEvery: 1}
				sys, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
				return walHeader(t, opts.Durability.Dir)
			},
			want: `{"version":3,"kind":"system","seed":5,"rows":8,"cols":8,"speed_kmh":15,"max_direction_deg":45,"queue_depth":8,"retry_every_ticks":1,"graph_fp":"b853a6a9c97efbb4"}`,
		},
		{
			name: "server crash harness",
			got: func(t *testing.T) string {
				return serverHeader(t, server.Config{
					CityRows: 10, CityCols: 10,
					InitialTaxis: 6, Capacity: 3,
					Speedup: 20, Seed: 4,
					Policy:      replay.Policy{QueueDepth: 8, RetryEveryTicks: 1},
					Parallelism: 1,
					ManualClock: true,
					Durability:  wal.Options{Dir: t.TempDir(), SyncEvery: 1, SnapshotEveryTicks: 3},
				})
			},
			want: `{"version":3,"kind":"system","seed":4,"rows":10,"cols":10,"partitions":8,"speed_kmh":15.000000000000002,"queue_depth":8,"retry_every_ticks":1,"graph_fp":"effb7d0e8b74a050"}`,
		},
		{
			name: "benchmark durable workload",
			got: func(t *testing.T) string {
				return serverHeader(t, server.Config{
					CityRows: 28, CityCols: 28,
					InitialTaxis: 80, Capacity: 3,
					Seed: 1, ManualClock: true,
					Durability: wal.Options{Dir: t.TempDir(), SyncEvery: 1},
				})
			},
			want: `{"version":3,"kind":"system","seed":1,"rows":28,"cols":28,"partitions":31,"speed_kmh":15.000000000000002,"graph_fp":"1139d420b344c461"}`,
		},
		{
			name: "runtime fault-plan tests",
			got: func(t *testing.T) string {
				rt, err := service.New(service.Config{
					Rows: 8, Cols: 8, Seed: 5,
					HistoryTripsPerHour: 300,
					PartitionSeed:       5,
					Match:               match.DefaultConfig(),
					Policy:              replay.Policy{QueueDepth: 8, RetryEveryTicks: 1},
					Faults:              &replay.FaultPlan{Seed: 3, UnreachableEvery: 9, CancelEvery: 7},
				})
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := rt.OpenWAL(wal.Options{Dir: dir, SyncEvery: 1}, replay.World{Seed: 5, Rows: 8, Cols: 8}); err != nil {
					t.Fatal(err)
				}
				if err := rt.Seal(); err != nil {
					t.Fatal(err)
				}
				return walHeader(t, dir)
			},
			want: `{"version":3,"kind":"system","seed":5,"rows":8,"cols":8,"queue_depth":8,"retry_every_ticks":1,"graph_fp":"b853a6a9c97efbb4","faults":{"seed":3,"unreachable_every":9,"cancel_every":7}}`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.got(t)
			if got != c.want {
				t.Fatalf("header bytes changed:\n got %s\nwant %s", got, c.want)
			}
			var h replay.Header
			if err := json.Unmarshal([]byte(got), &h); err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != got {
				t.Fatalf("header does not round-trip through replay.Header:\n got %s\nwant %s", again, got)
			}
		})
	}
}

// goldenHeader is line 1 of a checked-in golden log.
func goldenHeader(t *testing.T, name string) string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "golden", name+".jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	return firstLine(t, zr)
}

// recordedHeader is line 1 of a fresh recording of a golden scenario.
func recordedHeader(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RecordScenario(name, &buf, nil); err != nil {
		t.Fatal(err)
	}
	return firstLine(t, &buf)
}

// serverHeader starts a durable server, stops it and returns its WAL's
// record 0.
func serverHeader(t *testing.T, cfg server.Config) string {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	return walHeader(t, cfg.Durability.Dir)
}

// walHeader is record 0 of the closed WAL in dir.
func walHeader(t *testing.T, dir string) string {
	t.Helper()
	wlog, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	return firstLine(t, wlog.NewReader())
}

func firstLine(t *testing.T, r io.Reader) string {
	t.Helper()
	line, err := bufio.NewReader(r).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(line, "\n")
}
