package whisper

import (
	"bytes"
	"strings"
	"testing"
)

// TestSanitizerCleanAndByteIdentical is the sanitizer's core contract over
// the whole suite: for every benchmark, the live tap and the stored-trace
// pass (over the v2 tee) produce reports byte-identical to the standalone
// sanitizer run over the retained trace, and after the ordering fixes
// every app is clean — zero error-class sites and zero diagnostic sites.
func TestSanitizerCleanAndByteIdentical(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			serial, err := Run(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromTrace := refSan(t, serial.Trace)

			var tee bytes.Buffer
			streamed, err := RunStreamFused(name, cfg, FusedConfig{Sanitize: true}, &tee)
			if err != nil {
				t.Fatal(err)
			}
			fromDisk, err := AnalyzeReaderFused(bytes.NewReader(tee.Bytes()), FusedConfig{Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}

			if got, want := streamed.San.String(), fromTrace.String(); got != want {
				t.Errorf("streaming report diverged from serial:\n got: %s\nwant: %s", got, want)
			}
			if got, want := fromDisk.San.String(), fromTrace.String(); got != want {
				t.Errorf("stored-trace report diverged from serial:\n got: %s\nwant: %s", got, want)
			}

			if fromTrace.Errors() != 0 {
				t.Errorf("ordering errors in %s:\n%s", name, fromTrace)
			}
			for _, class := range SanClasses() {
				if n := fromTrace.Sites(class); n != 0 {
					t.Errorf("%s: %d %s sites, want 0:\n%s", name, n, class, fromTrace)
				}
			}
		})
	}
}

// TestSanitizerParallelMatchesSerial pins that RunAllParallel's retained
// traces sanitize to the same bytes as the serial path: worker scheduling
// must not leak into reports.
func TestSanitizerParallelMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 8, Seed: 7}
	serial, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAllParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("report counts diverge: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		sr, pr := refSan(t, serial[i].Trace), refSan(t, parallel[i].Trace)
		if sr.String() != pr.String() {
			t.Errorf("%s: parallel sanitizer report diverged:\n got: %s\nwant: %s",
				sr.App(), pr, sr)
		}
	}
}

// TestSanitizeReaderRejectsGarbage pins the error path for corrupt
// traces read with the sanitizer riding the pass.
func TestSanitizeReaderRejectsGarbage(t *testing.T) {
	if fr, err := AnalyzeReaderFused(bytes.NewReader([]byte("not a trace")), FusedConfig{Sanitize: true}); err == nil {
		t.Fatalf("sanitizing reader accepted garbage, report %+v", fr)
	}
}

// TestAllowlistAPIRoundTrip exercises the exported allowlist surface:
// parse, apply, and the suppressed accounting.
func TestAllowlistAPIRoundTrip(t *testing.T) {
	fr, err := RunStreamFused("ycsb", Config{Ops: 6, Seed: 3}, FusedConfig{Sanitize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	san := fr.San
	// Wildcard-suppress everything; on a clean trace this must be a no-op
	// but the parse/apply path still has to work.
	al, err := ParseAllowlist(strings.NewReader(
		"# suite-wide waiver\n* * \n"))
	if err != nil {
		t.Fatal(err)
	}
	if n := san.ApplyAllowlist(al); n != san.Suppressed() {
		t.Errorf("ApplyAllowlist returned %d, Suppressed() = %d", n, san.Suppressed())
	}
	if san.ApplyAllowlist(nil) != 0 {
		t.Error("nil allowlist suppressed sites")
	}
	if _, err := ParseAllowlist(strings.NewReader("toofew\n")); err == nil {
		t.Error("malformed allowlist rule accepted")
	}
}

// TestSanClassMetadata pins the exported class list and the
// error/diagnostic split the CLI exit code depends on.
func TestSanClassMetadata(t *testing.T) {
	want := []string{
		"dirty-at-commit", "unfenced-flush", "unfenced-nt-store",
		"redundant-flush", "fence-without-work",
	}
	got := SanClasses()
	if len(got) != len(want) {
		t.Fatalf("SanClasses() = %v", got)
	}
	for i, c := range want {
		if got[i] != c {
			t.Fatalf("SanClasses()[%d] = %q, want %q", i, got[i], c)
		}
	}
	for _, c := range want[:3] {
		if !SanClassIsError(c) {
			t.Errorf("%s should be an error class", c)
		}
	}
	for _, c := range want[3:] {
		if SanClassIsError(c) {
			t.Errorf("%s should be a diagnostic class", c)
		}
	}
	if SanClassIsError("bogus") {
		t.Error("unknown class reported as error")
	}
}
