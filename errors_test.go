package mtshare

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSentinelWrapping pins the contract documented on errors.go: the
// sentinels must survive errors.Is through arbitrarily deep fmt-style
// wrapping, stay distinct from each other, and carry the package prefix
// in their message.
func TestSentinelWrapping(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
	}{
		{"ErrNoTaxiAvailable", ErrNoTaxiAvailable},
		{"ErrQueued", ErrQueued},
		{"ErrQueueFull", ErrQueueFull},
		{"ErrInvalidRequest", ErrInvalidRequest},
		{"ErrUnknownTaxi", ErrUnknownTaxi},
		{"ErrInvalidOptions", ErrInvalidOptions},
		{"ErrShutdown", ErrShutdown},
	}
	for _, s := range sentinels {
		t.Run(s.name, func(t *testing.T) {
			if !strings.HasPrefix(s.err.Error(), "mtshare: ") {
				t.Fatalf("message %q lacks the package prefix", s.err.Error())
			}
			// One and two levels of %w wrapping, as the facade produces.
			once := fmt.Errorf("%w: taxi 42", s.err)
			twice := fmt.Errorf("dispatch failed: %w", once)
			for _, wrapped := range []error{s.err, once, twice} {
				if !errors.Is(wrapped, s.err) {
					t.Fatalf("errors.Is(%v, %s) = false", wrapped, s.name)
				}
			}
			// Sentinels must not match each other.
			for _, other := range sentinels {
				if other.name != s.name && errors.Is(once, other.err) {
					t.Fatalf("wrapped %s matches %s", s.name, other.name)
				}
			}
		})
	}
}

// TestFacadeErrorsMatchSentinels exercises the real error paths through
// the facade and checks each one wraps the documented sentinel (the
// returned errors carry situational detail, so direct equality would
// fail — errors.Is must not).
func TestFacadeErrorsMatchSentinels(t *testing.T) {
	s, err := New(Options{SyntheticCityRows: 8, SyntheticCityCols: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	min, max := s.Bounds()
	mid := Point{Lat: (min.Lat + max.Lat) / 2, Lng: (min.Lng + max.Lng) / 2}
	if _, err := s.AddTaxi(mid, 3); err != nil {
		t.Fatal(err)
	}

	if _, err := s.SubmitRequest(ctx, mid, mid, 1.3); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("degenerate endpoints: %v, want ErrInvalidRequest", err)
	}
	if _, err := s.SubmitRequest(ctx, min, max, 1.0); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("flexibility below minimum: %v, want ErrInvalidRequest", err)
	}
	if _, err := s.ReportStreetHail(ctx, 9999, min, max, 1.5); !errors.Is(err, ErrUnknownTaxi) {
		t.Fatalf("unknown taxi: %v, want ErrUnknownTaxi", err)
	}
	if _, err := s.Taxi(9999); !errors.Is(err, ErrUnknownTaxi) {
		t.Fatalf("status of unknown taxi: %v, want ErrUnknownTaxi", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddTaxi(mid, 3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("AddTaxi after Close: %v, want ErrShutdown", err)
	}
	if _, err := s.SubmitRequest(ctx, min, max, 1.3); !errors.Is(err, ErrShutdown) {
		t.Fatalf("SubmitRequest after Close: %v, want ErrShutdown", err)
	}
	if _, err := s.ReportStreetHail(ctx, 1, min, max, 1.5); !errors.Is(err, ErrShutdown) {
		t.Fatalf("ReportStreetHail after Close: %v, want ErrShutdown", err)
	}
}

// TestOptionsValidateRejections enumerates every field Validate guards
// and requires each bad value to be rejected with ErrInvalidOptions
// (and a message naming the offending value), while the zero value and
// the defaults pass.
func TestOptionsValidateRejections(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}

	cases := []struct {
		name string
		opts Options
		want string // substring of the error message
	}{
		{"negative rows", Options{SyntheticCityRows: -1}, "negative"},
		{"negative cols", Options{SyntheticCityCols: -3}, "negative"},
		{"degenerate rows", Options{SyntheticCityRows: 1}, "at least 2x2"},
		{"degenerate cols", Options{SyntheticCityCols: 1}, "at least 2x2"},
		{"negative partitions", Options{Partitions: -2}, "partitions"},
		{"negative speed", Options{SpeedKmh: -40}, "speed"},
		{"negative search range", Options{SearchRangeMeters: -500}, "search range"},
		{"negative direction tolerance", Options{MaxDirectionDiffDegrees: -10}, "direction"},
		{"direction tolerance over 180", Options{MaxDirectionDiffDegrees: 181}, "direction"},
		{"negative trace sampling", Options{TraceSampleEvery: -1}, "trace sample"},
		{"negative queue depth", Options{Policy: Policy{QueueDepth: -4}}, "queue depth"},
		{"negative retry interval", Options{Policy: Policy{QueueDepth: 8, RetryEveryTicks: -1}}, "retry interval"},
		{"retry without queue", Options{Policy: Policy{RetryEveryTicks: 2}}, "QueueDepth"},
		{"recording with custom history", Options{
			RecordTo: &bytes.Buffer{},
			History:  []Trip{{Origin: Point{Lat: 1}, Dest: Point{Lng: 1}}},
		}, "not serialised"},
		{"negative fault cadence", Options{
			Faults: &FaultPlan{UnreachableEvery: -1},
		}, "fault plan"},
		{"spike cadence without duration", Options{
			Faults: &FaultPlan{LatencySpikeEvery: 5},
		}, "fault plan"},
		{"negative shutdown event", Options{
			Faults: &FaultPlan{ShutdownAtEvent: -7},
		}, "fault plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("%+v accepted", tc.opts)
			}
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("error %v does not wrap ErrInvalidOptions", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
			// New must refuse the same options.
			if _, err := New(tc.opts); !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("New(%+v) = %v, want ErrInvalidOptions", tc.opts, err)
			}
		})
	}
}
