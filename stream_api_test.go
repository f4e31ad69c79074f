package whisper

import (
	"bytes"
	"reflect"
	"testing"
)

// TestStreamMatchesSerial is the pipeline's core contract: for every suite
// member, the materialized run and the streaming run — app goroutine
// piping events through the sharded analysis, no retained trace — both
// produce the report of the standalone epoch analysis over the recorded
// trace, and the v2 trace the stream tees out decodes to that exact trace
// and analyzes to the same report again.
func TestStreamMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			serial, err := Run(b.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refReport(serial.Trace)
			got := *serial
			got.Trace = nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Run report diverged:\n got: %+v\nwant: %+v", got, want)
			}

			var tee bytes.Buffer
			streamed, err := RunStream(b.Name, cfg, &tee)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Trace != nil {
				t.Error("streamed report retained a trace")
			}
			if !reflect.DeepEqual(*streamed, want) {
				t.Errorf("report diverged:\n got: %+v\nwant: %+v", *streamed, want)
			}
			if got := streamed.String(); got != want.String() {
				t.Errorf("rendered report diverged:\n got: %s\nwant: %s", got, want.String())
			}

			// The tee'd v2 stream must decode to the exact trace Run saw.
			dec, err := DecodeTrace(bytes.NewReader(tee.Bytes()))
			if err != nil {
				t.Fatalf("decoding tee'd v2 trace: %v", err)
			}
			if !reflect.DeepEqual(dec.tr, serial.Trace.tr) {
				t.Error("tee'd v2 trace != materialized trace")
			}

			// And analyzing the saved stream must reproduce the report again.
			fromDisk, err := AnalyzeReaderFused(bytes.NewReader(tee.Bytes()), FusedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*fromDisk.Report, want) {
				t.Errorf("saved-trace report diverged:\n got: %+v\nwant: %+v", *fromDisk.Report, want)
			}
		})
	}
}

// TestRunStreamUnknownBenchmark pins the error path.
func TestRunStreamUnknownBenchmark(t *testing.T) {
	if _, err := RunStream("nope", Config{}, nil); err == nil {
		t.Fatal("RunStream accepted an unknown benchmark")
	}
}

// TestAnalyzeReaderRejectsGarbage pins that a corrupt stream read with no
// consumers beyond the epoch analysis surfaces as an error, not a zeroed
// report.
func TestAnalyzeReaderRejectsGarbage(t *testing.T) {
	if fr, err := AnalyzeReaderFused(bytes.NewReader([]byte("not a trace")), FusedConfig{}); err == nil {
		t.Fatalf("reader analysis accepted garbage, report %+v", fr)
	}
}
