package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxLineBytes bounds one log line. Real events are well under 4 KiB;
// the cap keeps the decoder from buffering unbounded garbage (and keeps
// the fuzz target memory-safe).
const maxLineBytes = 1 << 20

// Encoder writes a replay log: the header, then one Event per line.
// Errors are sticky — the first write failure is remembered and every
// later call is a no-op, so hot paths can record without checking each
// write; read the sticky error via Err.
type Encoder struct {
	w   io.Writer
	err error
}

// NewEncoder writes the header line and returns the encoder.
func NewEncoder(w io.Writer, h Header) (*Encoder, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{w: w}
	e.writeLine(h)
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// ResumeEncoder returns an encoder that appends events to a log whose
// header line already exists — WAL recovery reopens the stream
// mid-history and must not write a second header.
func ResumeEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

func (e *Encoder) writeLine(v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = fmt.Errorf("replay: encode: %w", err)
		return
	}
	b = append(b, '\n')
	if _, err := e.w.Write(b); err != nil {
		e.err = fmt.Errorf("replay: write: %w", err)
	}
}

// Encode appends one event line.
func (e *Encoder) Encode(ev Event) { e.writeLine(ev) }

// Err returns the sticky error, if any write failed.
func (e *Encoder) Err() error { return e.err }

// ReadAll decodes a whole log into its header and event list. Blank
// lines are skipped.
func ReadAll(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var (
		h      *Header
		events []Event
		line   int
	)
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(b) == 0:
		case h == nil:
			h = new(Header)
			if err := json.Unmarshal(b, h); err != nil {
				return Header{}, nil, fmt.Errorf("replay: bad header line: %w", err)
			}
			if err := h.Validate(); err != nil {
				return Header{}, nil, err
			}
		default:
			var ev Event
			if err := json.Unmarshal(b, &ev); err != nil {
				return Header{}, nil, fmt.Errorf("replay: bad event at line %d: %w", line, err)
			}
			if ev.Kind() == "" {
				return Header{}, nil, fmt.Errorf("replay: event at line %d has no payload", line)
			}
			events = append(events, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, fmt.Errorf("replay: read line %d: %w", line+1, err)
	}
	if h == nil {
		return Header{}, nil, fmt.Errorf("replay: empty log")
	}
	return *h, events, nil
}
