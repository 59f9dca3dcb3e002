// Durable server state: the WAL header the server's configuration maps
// to, and the two routes the crash-recovery harness drives. Recording,
// snapshots and verified recovery live in the runtime (internal/service).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/replay"
)

// buildWALHeader pins the WAL to the world it records: reopening with a
// different configuration (or a different road graph) must be refused,
// not silently replayed into a diverging state.
func (s *Server) buildWALHeader() replay.Header {
	return replay.Header{
		Version:          replay.Version,
		Kind:             replay.KindSystem,
		Seed:             s.cfg.Seed,
		Rows:             s.cfg.CityRows,
		Cols:             s.cfg.CityCols,
		Partitions:       s.rt.Kappa,
		SpeedKmh:         s.rt.Engine.Config().SpeedMps * 3.6,
		Probabilistic:    s.cfg.Probabilistic,
		QueueDepth:       s.cfg.QueueDepth,
		RetryEveryTicks:  s.cfg.RetryEveryTicks,
		BatchAssign:      s.cfg.BatchAssign,
		GraphFingerprint: fmt.Sprintf("%016x", s.rt.Graph.Fingerprint()),
	}
}

// handleDurability reports the WAL's live statistics; with ?state=1 it
// additionally serializes the full runtime snapshot — the byte-
// comparable state surface the crash-recovery harness diffs across a
// kill -9. Without durability it answers {"enabled": false}.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.mu.Lock()
	wlog := s.rt.WAL()
	if wlog == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]interface{}{"enabled": false})
		return
	}
	out := map[string]interface{}{
		"enabled":              true,
		"events":               s.rt.Events(),
		"snapshot_every_ticks": s.cfg.Durability.SnapshotEveryTicks,
		"wal":                  wlog.Stats(),
	}
	if r.URL.Query().Get("state") != "" {
		out["state"] = s.rt.Capture()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleAdvance drives the simulated clock under ManualClock: POST
// {"d_seconds": 4.0} runs exactly one movement tick. With the wall-
// clock ticker active the route refuses — two clocks would race.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, r, http.MethodPost)
		return
	}
	if !s.cfg.ManualClock {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "manual clock disabled")
		return
	}
	var body struct {
		DSeconds float64 `json:"d_seconds"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	if body.DSeconds <= 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "d_seconds must be positive")
		return
	}
	s.lockTimed(s.lockWait.advance)
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	s.rt.Tick(time.Duration(body.DSeconds*float64(time.Second)), false)
	now, n, walErr := s.rt.Now(), s.rt.Events(), s.rt.WALErr()
	s.mu.Unlock()
	if walErr != nil {
		writeWALFailed(w, walErr)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"sim_seconds": now, "events": n})
}
