package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostFacts is printed with every result: a number from this benchmark
// means little without the machine it was measured on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuTicks is the aggregate "cpu" line of /proc/stat. Steal is time the
// hypervisor ran someone else while this guest wanted the CPU: the direct
// measure of the neighbours' interference the window-median rule defends
// against.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks returns zeros where /proc/stat is unavailable.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal
		for i, fld := range fields[1:9] {
			v, _ := strconv.ParseUint(fld, 10, 64)
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTicks{}
}

// stealFrac is the share of all CPU time between two readings that was
// stolen from this guest.
func stealFrac(from, to cpuTicks) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM), in
// MB; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// gcSample is the runtime's cumulative GC accounting at one instant.
type gcSample struct {
	gcCPU, totalCPU float64 // seconds
	cycles          uint64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[2].Value.Uint64()
	}
	return out
}
