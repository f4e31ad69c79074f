package whisper

import (
	"fmt"
	"io"
	"os"

	"github.com/whisper-pm/whisper/internal/pmsan"
)

// Durability-ordering sanitizer (pmsan). The sanitizer replays the
// store→flush→fence→commit lifecycle of every PM cache line and reports
// ordering errors (state a transaction publishes at TxEnd without a
// covering flush/fence) and performance smells (redundant flushes,
// no-op fences). It rides the analysis pipeline as a tap
// (FusedConfig.Sanitize), over a live run or a stored trace file alike.

// SanReport is the result of sanitizing one trace. Reports are
// deterministic: rendering is byte-stable across runs, and a live run
// and its saved trace render identically.
type SanReport struct {
	rep *pmsan.Report
}

// App returns the application name the report is for.
func (r *SanReport) App() string { return r.rep.App }

// String renders the full report (summary plus per-site detail).
func (r *SanReport) String() string { return r.rep.String() }

// Errors returns the number of unsuppressed error-class sites. Zero
// means the trace is clean (modulo the applied allowlist).
func (r *SanReport) Errors() int { return r.rep.Errors() }

// Suppressed returns the number of error-class sites an allowlist
// suppressed.
func (r *SanReport) Suppressed() int { return r.rep.Suppressed() }

// Sites returns the number of distinct (thread, line) sites reported
// for the named class, or 0 for an unknown class name.
func (r *SanReport) Sites(class string) int {
	c, ok := pmsan.ClassByName(class)
	if !ok {
		return 0
	}
	return r.rep.Sites(c)
}

// Hits returns the total number of events recorded for the named class.
func (r *SanReport) Hits(class string) uint64 {
	c, ok := pmsan.ClassByName(class)
	if !ok {
		return 0
	}
	return r.rep.Hits(c)
}

// ApplyAllowlist suppresses sites matching the allowlist and returns
// how many were newly suppressed. Nil allowlists are no-ops.
func (r *SanReport) ApplyAllowlist(a *Allowlist) int {
	if a == nil {
		return 0
	}
	return a.al.Apply(r.rep)
}

// SanClasses returns the violation class names in report order: the
// three error classes first, then the two diagnostics.
func SanClasses() []string {
	return []string{
		"dirty-at-commit", "unfenced-flush", "unfenced-nt-store",
		"redundant-flush", "fence-without-work",
	}
}

// SanClassIsError reports whether the named class is an ordering error
// (as opposed to a performance diagnostic).
func SanClassIsError(class string) bool {
	c, ok := pmsan.ClassByName(class)
	return ok && c.IsError()
}

// Allowlist suppresses known-intentional sanitizer findings; see
// internal/pmsan for the file format.
type Allowlist struct {
	al *pmsan.Allowlist
}

// ParseAllowlist reads allowlist rules from r.
func ParseAllowlist(r io.Reader) (*Allowlist, error) {
	al, err := pmsan.ParseAllowlist(r)
	if err != nil {
		return nil, err
	}
	return &Allowlist{al: al}, nil
}

// LoadAllowlist reads allowlist rules from a file.
func LoadAllowlist(path string) (*Allowlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("whisper: allowlist: %v", err)
	}
	defer f.Close()
	return ParseAllowlist(f)
}
