package whisper

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// TestFusedMatchesStandalone is the fused-mode contract: for every suite
// member, one fused pass — live or over the saved trace — produces an
// epoch report, sanitizer report, and cache statistics byte-identical to
// the three standalone analyses of the retained trace.
func TestFusedMatchesStandalone(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	all := FusedConfig{Sanitize: true, Cache: true}
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			serial, err := Run(b.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refReport(serial.Trace)
			wantSan := refSan(t, serial.Trace).String()
			wantCache := refCache(t, serial.Trace)

			check := func(path string, fr *FusedReport) {
				t.Helper()
				if !reflect.DeepEqual(*fr.Report, want) {
					t.Errorf("%s epoch report diverged:\n got: %+v\nwant: %+v", path, *fr.Report, want)
				}
				if got := fr.San.String(); got != wantSan {
					t.Errorf("%s sanitizer report diverged:\n got: %s\nwant: %s", path, got, wantSan)
				}
				if *fr.Cache != wantCache {
					t.Errorf("%s cache stats diverged:\n got: %+v\nwant: %+v", path, *fr.Cache, wantCache)
				}
			}
			var tee bytes.Buffer
			live, err := RunStreamFused(b.Name, cfg, all, &tee)
			if err != nil {
				t.Fatal(err)
			}
			check("live", live)
			// The saved trace analyzes identically through the one-decode
			// reader.
			fromDisk, err := AnalyzeReaderFused(bytes.NewReader(tee.Bytes()), all)
			if err != nil {
				t.Fatal(err)
			}
			check("saved", fromDisk)
		})
	}
}

// TestFusedNoExtras pins the degenerate configuration: no sanitizer, no
// cache simulation — plain streaming analysis with nil extras.
func TestFusedNoExtras(t *testing.T) {
	cfg := Config{Ops: 5, Seed: 3}
	serial, err := Run("ctree", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := refReport(serial.Trace)
	fused, err := RunStreamFused("ctree", cfg, FusedConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fused.San != nil || fused.Cache != nil {
		t.Error("unrequested fused consumers produced reports")
	}
	if !reflect.DeepEqual(*fused.Report, want) {
		t.Errorf("report diverged:\n got: %+v\nwant: %+v", *fused.Report, want)
	}
}

// tapSets are the consumer selections every pipeline error path is
// exercised under: the bare analysis and each fan-out shape.
var tapSets = []FusedConfig{{}, {Sanitize: true}, {Cache: true}, {Sanitize: true, Cache: true}}

// TestFusedReaderRejectsGarbage pins that a corrupt or truncated saved
// trace surfaces as an error — not a zeroed report, a hang, or a stuck
// fan-out branch — whichever consumers ride the pass.
func TestFusedReaderRejectsGarbage(t *testing.T) {
	rep, err := Run("ctree", Config{Ops: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := rep.Trace.EncodeV2(&v2); err != nil {
		t.Fatal(err)
	}
	good := v2.Bytes()
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)/2] ^= 0xff

	inputs := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"not a trace", []byte("not a trace"), "trace"},
		{"v2 truncated mid-block", good[:len(good)/2], "unexpected EOF"},
		{"v2 bad CRC", badCRC, "crc mismatch"},
	}
	for _, in := range inputs {
		for _, fcfg := range tapSets {
			fr, err := AnalyzeReaderFused(bytes.NewReader(in.data), fcfg)
			if err == nil {
				t.Errorf("%s %+v: accepted, report %+v", in.name, fcfg, fr.Report)
				continue
			}
			if !strings.Contains(err.Error(), in.wantErr) {
				t.Errorf("%s %+v: error %q does not mention %q", in.name, fcfg, err, in.wantErr)
			}
		}
	}
}

// TestPipelineRecoversBenchmarkPanic injects a suite member that panics
// after emitting several producer chunks of events, and pins that every
// entry point turns the panic into an error — with no deadlock and no
// goroutine left behind by the producer or the fan-out branches.
func TestPipelineRecoversBenchmarkPanic(t *testing.T) {
	saved := suite
	suite = append(append([]Benchmark(nil), saved...), Benchmark{
		Name: "boom", Layer: "native", defaultClients: 1, defaultOps: 1,
		run: func(rt *persist.Runtime, clients, ops int, seed int64) {
			th := rt.Thread(0)
			for i := 0; i < 4*streamChunk; i++ {
				th.StoreU64(mem.PMBase+mem.Addr(64*(i%32)), uint64(i))
				th.FlushFence(mem.PMBase+mem.Addr(64*(i%32)), 8)
			}
			panic("injected")
		}})
	t.Cleanup(func() { suite = saved })

	const wantErr = "whisper: boom panicked: injected"
	type call struct {
		name string
		run  func() error
	}
	calls := []call{
		{"Run", func() error { _, err := Run("boom", Config{}); return err }},
		{"RunAllParallel", func() error { _, err := RunAllParallel(Config{Ops: 1, Seed: 1}, 2); return err }},
		{"RunStream", func() error { _, err := RunStream("boom", Config{}, nil); return err }},
		{"RunStream/tee", func() error { _, err := RunStream("boom", Config{}, new(bytes.Buffer)); return err }},
	}
	for _, fcfg := range tapSets {
		calls = append(calls, call{fmt.Sprintf("RunStreamFused%+v", fcfg), func() error {
			_, err := RunStreamFused("boom", Config{}, fcfg, nil)
			return err
		}})
	}

	before := runtime.NumGoroutine()
	for _, c := range calls {
		done := make(chan error, 1)
		go func() { done <- c.run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s: error %v, want %q", c.name, err, wantErr)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: deadlocked on a panicking benchmark", c.name)
		}
	}
	// Producer and branch goroutines exit asynchronously after the
	// consumer returns; give them a moment before calling it a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines leaked:\n%s", n-before, buf[:runtime.Stack(buf, true)])
	}
}
