package mtshare

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGoldenReplays replays the checked-in golden logs: the current
// engine must reproduce them bit for bit. A divergence here means an
// engine change altered dispatch decisions — either fix the regression
// or regenerate the goldens (cmd/mtshare-replay -gen) and justify the
// behaviour change in review.
func TestGoldenReplays(t *testing.T) {
	for _, name := range ScenarioNames {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", name+".jsonl.gz")
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("golden log missing (regenerate with: go run ./cmd/mtshare-replay -gen %s -o %s): %v", name, path, err)
			}
			defer f.Close()
			rep, err := Replay(f)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Events == 0 {
				t.Fatal("golden log has no events")
			}
			if rep.Diverged() {
				t.Fatalf("%d divergences over %d events; first: %s", len(rep.Divergences), rep.Events, rep.First())
			}
		})
	}
}

// TestGoldenMatchesScenario checks the goldens are in sync with the
// scenario definitions: recording the scenario today must reproduce the
// checked-in bytes exactly (after gunzip).
func TestGoldenMatchesScenario(t *testing.T) {
	for _, name := range ScenarioNames {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", name+".jsonl.gz")
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := want.ReadFrom(zr); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := RecordScenario(name, &got, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("golden %s is stale; %s", name, firstDiffLine(want.Bytes(), got.Bytes()))
			}
		})
	}
}

// firstDiffLine names the first line at which two logs differ.
func firstDiffLine(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for k := range min(len(la), len(lb)) {
		if la[k] != lb[k] {
			return fmt.Sprintf("first difference at line %d:\n %s\n %s", k+1, la[k], lb[k])
		}
	}
	return fmt.Sprintf("one log is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}

// TestRecordReplayWithFaults exercises the fault-injection layer:
// recording the same scenario twice under an aggressive fault plan must
// produce byte-identical logs (every fault decision is a pure function
// of seed and event index), and replaying must be divergence-free even
// though faults fire throughout the run.
func TestRecordReplayWithFaults(t *testing.T) {
	// CancelEvery is dense (the lottery must land on request events, not
	// just ticks) and the forced shutdown hits inside the last round of
	// requests rather than the drain ticks.
	plan := &FaultPlan{
		Seed:             3,
		UnreachableEvery: 9,
		CancelEvery:      3,
		ShutdownAtEvent:  50,
	}
	var a, b bytes.Buffer
	if err := RecordScenario("uniform", &a, plan); err != nil {
		t.Fatal(err)
	}
	if err := RecordScenario("uniform", &b, plan); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two same-seed fault-injected recordings differ; %s", firstDiffLine(a.Bytes(), b.Bytes()))
	}

	// The plan must actually have injected something.
	log := a.String()
	if !strings.Contains(log, `"err":"canceled"`) {
		t.Fatal("cancel faults never fired")
	}
	if !strings.Contains(log, `"err":"shutdown"`) {
		t.Fatal("forced shutdown never fired")
	}

	rep, err := Replay(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged() {
		t.Fatalf("fault-injected replay diverged: first %s", rep.First())
	}
}

// TestReplayDetectsTampering flips one recorded outcome and expects the
// replayer to pinpoint exactly that event.
func TestReplayDetectsTampering(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordScenario("uniform", &buf, nil); err != nil {
		t.Fatal(err)
	}
	// Flip a served request's taxi assignment in the raw JSONL.
	lines := strings.Split(buf.String(), "\n")
	tampered := -1
	for i, ln := range lines {
		if strings.Contains(ln, `"request":`) && strings.Contains(ln, `"taxi":1,`) {
			lines[i] = strings.Replace(ln, `"taxi":1,`, `"taxi":7,`, 1)
			tampered = i
			break
		}
	}
	if tampered < 0 {
		t.Fatal("no request assigned to taxi 1 in the uniform scenario")
	}
	rep, err := Replay(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged() {
		t.Fatal("tampered log replayed clean")
	}
	first := rep.First()
	if first.Field != "request.taxi" {
		t.Fatalf("first divergence %v, want request.taxi", first)
	}
	if first.Event != int64(tampered-1) { // line 0 is the header
		t.Fatalf("divergence at event %d, tampered event %d", first.Event, tampered-1)
	}
	if first.Recorded != "7" || first.Replayed != "1" {
		t.Fatalf("divergence values %q/%q, want 7/1", first.Recorded, first.Replayed)
	}
}

// TestReplayUnsealedPrefix truncates a log mid-run (as if the recorder
// died) and expects the surviving prefix to replay clean.
func TestReplayUnsealedPrefix(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordScenario("uniform", &buf, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	// Keep header + roughly half the events, dropping the metrics seal.
	prefix := strings.Join(lines[:len(lines)/2], "")
	rep, err := Replay(strings.NewReader(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged() {
		t.Fatalf("truncated log diverged: %s", rep.First())
	}
	if rep.Events == 0 {
		t.Fatal("prefix replay saw no events")
	}
}

// TestReplayReportsHeaderMismatch replays a queued log whose header lost
// its retry interval: the rebuilt world defaults it back to 1, so the
// header the runtime builds differs from the recorded one. That is the
// only divergence — every event still replays.
func TestReplayReportsHeaderMismatch(t *testing.T) {
	var buf bytes.Buffer
	sys, err := New(Options{
		SyntheticCityRows: 10, SyntheticCityCols: 10, Seed: 4,
		Policy:   Policy{QueueDepth: 8, RetryEveryTicks: 1},
		RecordTo: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	min, max := sys.Bounds()
	mid := Point{Lat: (min.Lat + max.Lat) / 2, Lng: (min.Lng + max.Lng) / 2}
	sys.AddTaxi(min, 3)
	sys.SubmitRequest(context.Background(), mid, max, 1.3)
	sys.Advance(30 * time.Second)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	mangled := strings.Replace(log, `,"retry_every_ticks":1`, "", 1)
	if mangled == log {
		t.Fatalf("header carries no retry interval: %s", strings.SplitN(log, "\n", 2)[0])
	}
	rep, err := Replay(strings.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 {
		t.Fatalf("want exactly the header divergence, got %v", rep.Divergences)
	}
	if d := rep.First(); d.Event != -1 || d.Field != "header" {
		t.Fatalf("divergence %v, want event -1 field header", d)
	}
}

func TestReplayRejects(t *testing.T) {
	// Only a system-kind log drives a System replay; the simulator's
	// retired log kind is refused.
	simLog := `{"version":3,"kind":"sim","seed":1}` + "\n"
	if _, err := Replay(strings.NewReader(simLog)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("sim log accepted: %v", err)
	}
	// A wrong graph fingerprint must refuse to diff.
	var buf bytes.Buffer
	if err := RecordScenario("uniform", &buf, nil); err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(buf.String(), `"graph_fp":"`, `"graph_fp":"ffff`, 1)
	if _, err := Replay(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("wrong fingerprint accepted: %v", err)
	}
	// Garbage is an error, not a panic.
	if _, err := Replay(strings.NewReader("not a log")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRecordScenarioUnknown(t *testing.T) {
	if err := RecordScenario("nope", &bytes.Buffer{}, nil); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRecordToGzipRoundTrip records through a gzip writer and replays
// through the transparent gunzip path.
func TestRecordToGzipRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := RecordScenario("uniform", zw, nil); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged() {
		t.Fatalf("gzip round-trip diverged: %s", rep.First())
	}
}

// TestRecordRejectsCustomHistory pins the Options.Validate guard: a
// recorded run must be reproducible from the header alone, and a custom
// History is not serialised.
func TestRecordRejectsCustomHistory(t *testing.T) {
	_, err := New(Options{
		RecordTo: &bytes.Buffer{},
		History:  []Trip{{Origin: Point{Lat: 1}, Dest: Point{Lng: 1}}},
	})
	if err == nil {
		t.Fatal("recording with custom history accepted")
	}
}

// TestReplayRefusesV2Header pins the format window: a fresh recording is
// version 3, and a log whose header claims any other version — the
// version-2 format included — is refused rather than replayed.
func TestReplayRefusesV2Header(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordScenario("uniform", &buf, nil); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	if !strings.HasPrefix(log, `{"version":3,`) {
		t.Fatalf("fresh recording is not version 3: %s", strings.SplitN(log, "\n", 2)[0])
	}
	for _, bad := range []string{`{"version":1,`, `{"version":2,`, `{"version":4,`} {
		mangled := strings.Replace(log, `{"version":3,`, bad, 1)
		if _, err := Replay(strings.NewReader(mangled)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("header %s... not refused: %v", bad, err)
		}
	}
}
