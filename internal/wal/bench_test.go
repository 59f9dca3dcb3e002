package wal

import (
	"math"
	"testing"
)

// benchPayload approximates one replay event line.
var benchPayload = []byte(`{"i":123456,"tick":{"d":60000000000,"rides":[{"req":42,"taxi":7,"pickup":true,"at":1234567890}],"queue_matched":[{"req":43,"taxi":8,"wait":2500000000}]}}`)

// BenchmarkWALAppend measures append throughput across the group-commit
// spectrum: fsync every record, every 64 records, and never (buffered
// only; Close pays the single final sync).
func BenchmarkWALAppend(b *testing.B) {
	for _, se := range []struct {
		name string
		v    int
	}{{"sync=1", 1}, {"sync=64", 64}, {"sync=never", -1}} {
		b.Run(se.name, func(b *testing.B) {
			l, err := Open(Options{Dir: b.TempDir(), SyncEvery: se.v}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.SetBytes(int64(len(benchPayload) + frameHeaderBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(benchPayload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALSnapshotWrite measures the atomic snapshot write path
// (frame + fsync + rename + dir fsync) at a fleet-scale payload size.
func BenchmarkWALSnapshotWrite(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.WriteSnapshot(int64(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALSnapshotRestore measures locating and CRC-verifying the
// newest snapshot, the first step of recovery.
func BenchmarkWALSnapshotRestore(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := l.WriteSnapshot(1000, payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, got, ok, err := l.LatestSnapshotAtOrBefore(math.MaxInt64)
		if err != nil || !ok || ev != 1000 || len(got) != len(payload) {
			b.Fatalf("LatestSnapshotAtOrBefore = (%d, %d bytes, %v, %v)", ev, len(got), ok, err)
		}
	}
}
