package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/mathx"
)

// provenance is stored with every result: the machine, the toolchain,
// the source the binary was built from, and the problem scale.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_sha256"`
	Scale        scale   `json:"scale"`
}

func newProvenance(cfg runConfig) provenance {
	return provenance{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       buildCommit(),
		SourceDigest: sourceDigest("."),
		Scale:        cfg.scale,
	}
}

// buildCommit returns the VCS revision the toolchain stamped into the
// binary, "+dirty" when the tree had local changes, or "unknown" when
// the build was not made inside a repository.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, so a
// result names the exact source even where no VCS revision exists. It
// returns "" when root holds no module.
func sourceDigest(root string) string {
	var files []string
	// The walk returns no error of its own: the callback skips what it
	// cannot read, and the digest covers whatever was readable.
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return ""
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(f))
		h.Write([]byte{0})
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return mathx.NearestRank(xs, q)
}

// median returns the nearest-rank median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// heapInUse forces a collection and returns the live heap in bytes.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocCounters returns the cumulative allocation count and bytes.
func allocCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// span is one timed layer call recorded by the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`   // "<layer>.<call>"
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory. Spans nest by
// call order: the benchmark's own code is sequential, so the open span
// on top of the stack is the parent of the next one. A nil tracer
// records nothing.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// do runs fn inside a span named name and returns fn's wall seconds.
func (t *tracer) do(name string, fn func()) float64 {
	if t == nil {
		return timeIt(fn)
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	start := time.Now()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: int64(start.Sub(t.t0))})
	t.stack = append(t.stack, id)
	fn()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(end.Sub(t.t0))
	return end.Sub(start).Seconds()
}

// selfTimes returns each layer's self time in seconds: the summed
// durations of its spans minus the parts their child spans cover. The
// layer is the span name up to its first dot.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
