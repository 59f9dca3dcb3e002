package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/wal"
)

// durableTestConfig is the world every server crash test runs in.
func durableTestConfig(dir string, parallelism int) Config {
	return Config{
		CityRows: 10, CityCols: 10,
		InitialTaxis: 6, Capacity: 3,
		Speedup: 20, Seed: 4,
		Policy:      replay.Policy{QueueDepth: 8, RetryEveryTicks: 1},
		Parallelism: parallelism,
		ManualClock: true,
		Durability:  wal.Options{Dir: dir, SyncEvery: 1, SnapshotEveryTicks: 3},
	}
}

// crashOp returns the HTTP method, path, and body of deterministic
// operation k — a pure function of k, so any two servers driven over
// the same index range receive identical input streams.
func crashOp(k int) (string, string, interface{}) {
	frac := func(salt int) float64 {
		h := uint64(k*1000003+salt*7919) * 0x9E3779B97F4A7C15
		return float64(h>>11) / float64(1<<53)
	}
	pt := func(salt int) map[string]float64 {
		// Offsets within the 10x10 synthetic city's bounding box (centred
		// on Chengdu, ~1.1 km across); the server snaps them to road
		// vertices.
		return map[string]float64{
			"lat": 30.6540 + 0.0094*frac(salt),
			"lng": 104.0600 + 0.0096*frac(salt+1),
		}
	}
	switch {
	case k%4 == 3:
		return http.MethodPost, "/v1/advance", map[string]float64{"d_seconds": 4}
	case k%11 == 6:
		return http.MethodPost, "/v1/hails", map[string]interface{}{
			"taxi_id": 1 + k%6, "pickup": pt(1), "dropoff": pt(3), "rho": 1.5,
		}
	case k%9 == 0:
		return http.MethodPost, "/v1/taxis", map[string]interface{}{
			"lat": pt(5)["lat"], "lng": pt(5)["lng"], "capacity": 3,
		}
	default:
		return http.MethodPost, "/v1/requests", map[string]interface{}{
			"pickup": pt(1), "dropoff": pt(3), "rho": 1.3,
		}
	}
}

// TestServerDurableRecoveryInProcess drives the handler through a
// deterministic op schedule, abandons the server without Stop (the
// in-process crash: SyncEvery=1 means everything reached the OS), and
// requires a New over the same directory to rebuild byte-identical
// state — then both the recovered server and a never-crashed control
// must answer an identical op suffix identically. The subtest keeps the
// name it had in the former shards loop, so the test id is unchanged.
func TestServerDurableRecoveryInProcess(t *testing.T) {
	t.Run("shards=1", durableRecoveryInProcess)
}

func durableRecoveryInProcess(t *testing.T) {
	dir := t.TempDir()
	crashed, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := crashed.Handler()

	ctl, err := New(durableTestConfig(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	hCtl := ctl.Handler()

	const prefix, total = 17, 25
	for k := 0; k < prefix; k++ {
		method, path, body := crashOp(k)
		rec, _ := do(t, h, method, path, body)
		recCtl, _ := do(t, hCtl, method, path, body)
		if rec.Body.String() != recCtl.Body.String() {
			t.Fatalf("op %d diverged between live and control before any crash:\n%s\n%s",
				k, rec.Body.String(), recCtl.Body.String())
		}
	}
	crashed.mu.Lock()
	crashed.rt.WaitSnapshots()
	want, err := json.Marshal(crashed.rt.Capture())
	crashed.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	recovered, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	recovered.mu.Lock()
	got, err := json.Marshal(recovered.rt.Capture())
	recovered.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from crashed state:\n got %s\nwant %s", got, want)
	}

	hRec := recovered.Handler()
	for k := prefix; k < total; k++ {
		method, path, body := crashOp(k)
		rec, _ := do(t, hRec, method, path, body)
		recCtl, _ := do(t, hCtl, method, path, body)
		if rec.Body.String() != recCtl.Body.String() {
			t.Fatalf("post-recovery op %d diverged:\n%s\n%s", k, rec.Body.String(), recCtl.Body.String())
		}
	}
	recovered.Stop()
	ctl.Stop()
}

// TestServerDurableCleanRestart proves the clean-shutdown path: Stop
// seals the WAL with the counters record, and a restart verifies the
// seal and resumes the log.
func TestServerDurableCleanRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for k := 0; k < 9; k++ {
		method, path, body := crashOp(k)
		do(t, h, method, path, body)
	}
	s.Stop()

	restarted, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatalf("restart after clean Stop: %v", err)
	}
	if restarted.rt.Events() != 6+9 {
		t.Fatalf("restarted at event %d, want %d", restarted.rt.Events(), 6+9)
	}
	restarted.Stop()
}

// TestServerDurableHeaderPinsBatchAssign proves the WAL header
// fingerprints the queue's retry policy: a log recorded under
// BatchAssign must not reopen under greedy rounds, where a snapshot-only
// recovery would keep serving under the other policy without complaint.
func TestServerDurableHeaderPinsBatchAssign(t *testing.T) {
	dir := t.TempDir()
	cfg := durableTestConfig(dir, 1)
	cfg.BatchAssign = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for k := 0; k < 9; k++ {
		method, path, body := crashOp(k)
		do(t, h, method, path, body)
	}
	s.Stop()

	cfg.BatchAssign = false
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "header mismatch") {
		t.Fatalf("reopening a batch-assign WAL under greedy rounds: err = %v, want a header mismatch", err)
	}
}

// ---- kill -9 harness -------------------------------------------------

// buildServerBinary compiles cmd/mtshare-server once for the harness.
func buildServerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mtshare-server")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/mtshare-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type childServer struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer
}

// startChild launches the server binary over walDir and waits for the
// API to come up (recovery happens before listening). crashAt > 0 arms
// the self-SIGKILL crash point.
func startChild(t *testing.T, bin, walDir string, parallelism int, crashAt int64) *childServer {
	t.Helper()
	addr := freeAddr(t)
	args := []string{
		"-addr", addr, "-rows", "10", "-cols", "10", "-taxis", "6", "-seed", "4",
		"-queue", "8", "-queue-retry", "1", "-manual-clock",
		"-wal-dir", walDir, "-wal-sync-every", "1", "-snapshot-every", "3",
		"-parallelism", fmt.Sprint(parallelism),
	}
	cmd := exec.Command(bin, args...)
	logs := &bytes.Buffer{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if crashAt > 0 {
		cmd.Env = append(os.Environ(), fmt.Sprintf("MTSHARE_CRASH_AT_EVENT=%d", crashAt))
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &childServer{cmd: cmd, base: "http://" + addr, logs: logs}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.base + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatalf("server did not come up; logs:\n%s", logs.String())
	return nil
}

func (c *childServer) stop() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}

// post sends op k; ok=false means the server died mid-request (the
// armed crash point fired).
func (c *childServer) post(k int) (string, bool) {
	method, path, body := crashOp(k)
	b, _ := json.Marshal(body)
	req, _ := http.NewRequest(method, c.base+path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(out)), true
}

// state fetches the byte-comparable durability state surface.
func (c *childServer) state(t *testing.T) (events json.RawMessage, state json.RawMessage) {
	t.Helper()
	resp, err := http.Get(c.base + "/v1/durability?state=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["events"], out["state"]
}

func (c *childServer) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return strings.TrimSpace(string(b))
}

// copyWALSegments clones a WAL directory's segment files — but not its
// snapshots — so a reference server recovers the same history from
// genesis, cross-checking the snapshot-restore path against pure
// replay.
func copyWALSegments(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestServerCrashRecoveryKill9 is the acceptance harness: a real
// mtshare-server process is SIGKILLed at seeded WAL event indices, and
// a restart over the surviving directory must serve byte-identical
// state — proven against a reference server that replays the same WAL
// from genesis (no snapshots) — and then answer an identical op suffix
// identically, at dispatch parallelism 1 and 2.
func TestServerCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real server processes")
	}
	bin := buildServerBinary(t)
	const maxOps = 40
	for _, parallelism := range []int{1, 2} {
		// Events 0..5 are the seeded fleet; crash strictly inside the
		// driven op range. Seed 100+parallelism keeps the crash points
		// of the cells CI has always run.
		crashPoints := replay.CrashPoints(int64(100+parallelism), 3, 6+maxOps-8)
		for _, cp := range crashPoints {
			if cp < 7 {
				cp += 6
			}
			t.Run(fmt.Sprintf("par=%d/crash=%d", parallelism, cp), func(t *testing.T) {
				walDir := t.TempDir()
				victim := startChild(t, bin, walDir, parallelism, cp)
				defer victim.stop()
				crashed := false
				for k := 0; k < maxOps; k++ {
					if _, ok := victim.post(k); !ok {
						crashed = true
						break
					}
				}
				if !crashed {
					t.Fatalf("server survived %d ops, crash point %d never fired; logs:\n%s",
						maxOps, cp, victim.logs.String())
				}
				if err := victim.cmd.Wait(); err == nil {
					t.Fatal("crashed server exited cleanly")
				}
				ws, ok := victim.cmd.ProcessState.Sys().(syscall.WaitStatus)
				if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					t.Fatalf("server did not die by SIGKILL: %v", victim.cmd.ProcessState)
				}

				refDir := copyWALSegments(t, walDir)
				recovered := startChild(t, bin, walDir, parallelism, 0)
				defer recovered.stop()
				reference := startChild(t, bin, refDir, parallelism, 0)
				defer reference.stop()

				recEvents, recState := recovered.state(t)
				refEvents, refState := reference.state(t)
				if !bytes.Equal(recEvents, refEvents) {
					t.Fatalf("recovered %s events, reference replayed %s", recEvents, refEvents)
				}
				if !bytes.Equal(recState, refState) {
					t.Fatalf("recovered state differs from genesis replay:\n got %s\nwant %s", recState, refState)
				}
				for _, path := range []string{"/v1/taxis", "/v1/queue"} {
					if got, want := recovered.get(t, path), reference.get(t, path); got != want {
						t.Fatalf("GET %s differs after recovery:\n got %s\nwant %s", path, got, want)
					}
				}

				// Identical suffixes must produce identical responses and
				// identical final states.
				for k := maxOps; k < maxOps+8; k++ {
					got, ok1 := recovered.post(k)
					want, ok2 := reference.post(k)
					if !ok1 || !ok2 {
						t.Fatalf("suffix op %d failed (recovered ok=%v, reference ok=%v)", k, ok1, ok2)
					}
					if got != want {
						t.Fatalf("suffix op %d diverged:\n got %s\nwant %s", k, got, want)
					}
				}
				_, recFinal := recovered.state(t)
				_, refFinal := reference.state(t)
				if !bytes.Equal(recFinal, refFinal) {
					t.Fatalf("final state diverged after suffix:\n got %s\nwant %s", recFinal, refFinal)
				}
			})
		}
	}
}

// TestServerWALFailureFailsRequests proves a dead WAL stops the serve
// path: the request whose append hit the sticky error is answered with
// the wal_failed envelope instead of an ack, and every later mutation
// is rejected — the server must not keep acknowledging work it is no
// longer persisting.
func TestServerWALFailureFailsRequests(t *testing.T) {
	s, err := New(durableTestConfig(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	h := s.Handler()

	method, path, body := crashOp(1) // a plain dispatch op
	if rec, _ := do(t, h, method, path, body); rec.Code != http.StatusOK {
		t.Fatalf("healthy dispatch = %d, want 200", rec.Code)
	}

	// Kill the log out from under the server: the next append fails and
	// the error sticks in the encoder.
	s.mu.Lock()
	s.rt.WAL().Close()
	s.mu.Unlock()

	rec, out := do(t, h, method, path, body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dispatch with dead WAL = %d, want 503", rec.Code)
	}
	if string(out["code"]) != `"wal_failed"` {
		t.Fatalf("error code = %s, want \"wal_failed\"", out["code"])
	}

	// Everything after is rejected up front, still naming the WAL.
	rec, out = do(t, h, method, path, body)
	if rec.Code != http.StatusServiceUnavailable || string(out["code"]) != `"wal_failed"` {
		t.Fatalf("follow-up = (%d, %s), want (503, \"wal_failed\")", rec.Code, out["code"])
	}
}

// TestServerRecoveryTopsUpSeeding proves a recovery that replays fewer
// seeded taxis than the configured fleet (the WAL lost the tail of the
// seeding burst) tops the fleet back up instead of silently running
// undersized forever.
func TestServerRecoveryTopsUpSeeding(t *testing.T) {
	dir := t.TempDir()
	small := durableTestConfig(dir, 1)
	small.InitialTaxis = 3
	s, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()

	full := durableTestConfig(dir, 1) // InitialTaxis = 6
	r, err := New(full)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if len(r.rt.Taxis()) != 6 {
		t.Fatalf("recovered fleet has %d taxis, want topped up to 6", len(r.rt.Taxis()))
	}
	r.Stop()

	// The top-up landed in the WAL as ordinary AddTaxi events: the next
	// restart replays the full fleet.
	again, err := New(full)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if len(again.rt.Taxis()) != 6 {
		t.Fatalf("re-recovered fleet has %d taxis, want 6", len(again.rt.Taxis()))
	}
	again.Stop()
}

// TestServerRecoveryIgnoresSnapshotAheadOfWAL plants a CRC-valid
// snapshot whose watermark exceeds the log's record count — the state a
// crashed process snapshotted after events its unsynced WAL tail lost —
// and requires recovery to skip it and genesis-replay instead of
// resurrecting phantom state (or failing on its payload).
func TestServerRecoveryIgnoresSnapshotAheadOfWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for k := 0; k < 9; k++ {
		method, path, body := crashOp(k)
		do(t, h, method, path, body)
	}
	s.Stop()

	l, err := wal.Open(wal.Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(1000, []byte("phantom state")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	r, err := New(durableTestConfig(dir, 1))
	if err != nil {
		t.Fatalf("recovery must skip the snapshot ahead of the WAL: %v", err)
	}
	if r.rt.Events() != 6+9 {
		t.Fatalf("recovered at event %d, want %d", r.rt.Events(), 6+9)
	}
	r.Stop()
}
