package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarises; the final
	// result line omits it.
	Samples int `json:"samples,omitempty"`
}

// sample is one operation's latency and the round it completed in.
type sample struct {
	round int
	ms    float64
}

// samples collects what one driver measured. Each driver owns one, so
// recording takes no lock; they are merged after the window.
type samples struct {
	lat               map[string][]sample // operation -> latencies
	attempted, failed int
}

func newSamples() *samples { return &samples{lat: make(map[string][]sample)} }

func (s *samples) merge(o *samples) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
}

// window is the measured part of a run, reduced to its quiet rounds.
//
// The reference host shares its cores: a CPU-bound loop there takes
// anything from 1x to 2.4x its best time, changing second by second,
// and the interference only ever slows the program down. So the window
// is cut into about twenty slices of equal, whole periods of the
// workload's round schedule (every slice does the same work), and the
// metrics are computed over the fastest quarter of the slices: rates as
// operations completed in those rounds over their duration, latencies
// as the median over the samples taken in them. Costs that recur within
// a slice (GC cycles, WAL snapshots) stay counted; a stall that hits
// some slices does not decide the result.
type window struct {
	first int           // number of the window's first round
	quiet []bool        // per round of the window
	dur   time.Duration // of the quiet rounds together
	lat   map[string][]sample
}

// newWindow picks the quiet rounds. durs are the window's round
// durations; period is the length of the round schedule in rounds.
func newWindow(first int, durs []time.Duration, period int, lat map[string][]sample) *window {
	w := &window{first: first, quiet: make([]bool, len(durs)), lat: lat}
	per := max(period, len(durs)/20/period*period)
	type slice struct {
		lo  int
		dur time.Duration
	}
	var slices []slice
	for lo := 0; lo+per <= len(durs); lo += per {
		sl := slice{lo: lo}
		for _, d := range durs[lo : lo+per] {
			sl.dur += d
		}
		slices = append(slices, sl)
	}
	if len(slices) == 0 { // a window shorter than one period: all of it
		slices, per = []slice{{}}, len(durs)
		for _, d := range durs {
			slices[0].dur += d
		}
	}
	sort.Slice(slices, func(i, j int) bool { return slices[i].dur < slices[j].dur })
	for _, sl := range slices[:max(1, len(slices)/4)] {
		w.dur += sl.dur
		for i := sl.lo; i < sl.lo+per; i++ {
			w.quiet[i] = true
		}
	}
	return w
}

// values lists an operation's latencies, from the quiet rounds or from
// the whole window.
func (w *window) values(op string, quietOnly bool) []float64 {
	var out []float64
	for _, s := range w.lat[op] {
		if i := s.round - w.first; i >= 0 && i < len(w.quiet) && (w.quiet[i] || !quietOnly) {
			out = append(out, s.ms)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by nearest rank; xs must be
// non-empty and is sorted in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fsTypeOf names the filesystem dir lives on, from the mount table.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /root /mnt rw - ext4 /dev/sda1 rw": the mount point
		// is field 5, the type follows the " - " separator.
		pre, post, ok := strings.Cut(line, " - ")
		fields := strings.Fields(pre)
		if !ok || len(fields) < 5 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, strings.Fields(post)[0]
		}
	}
	return typ
}

// countingFS is the real filesystem with exact counts of what the WAL
// asks of it: fsyncs (file and directory) and bytes written.
type countingFS struct {
	store.OSFS
	syncs, bytes atomic.Int64
}

func (c *countingFS) OpenAppend(path string) (store.File, error) {
	f, err := c.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) Create(path string) (store.File, error) {
	f, err := c.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.OSFS.SyncDir(dir)
}

type countingFile struct {
	store.File
	c *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.c.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}
