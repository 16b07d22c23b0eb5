package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"fabriccrdt/internal/obs"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these. It is 100 on every Linux the Go toolchain supports.
const clockTick = 10 * time.Millisecond

// series is one parsed exposition: sample values by "name{labels}".
type series map[string]float64

// parseExposition parses a Prometheus text body into its samples. The
// body must already have passed obs.ValidateExposition.
func parseExposition(body []byte) (series, error) {
	out := make(series)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample of the family whose label set contains all the
// given `key="value"` fragments.
func (s series) sum(family string, labels ...string) float64 {
	var total float64
	for key, v := range s {
		name, rest, _ := strings.Cut(key, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// label renders one `key="value"` fragment for series.sum.
func label(key, value string) string { return key + `="` + value + `"` }

// delta returns after − before of a counter family.
func delta(before, after series, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}

// scrape fetches one process's /metrics, checks it is well-formed
// exposition, and parses it.
func scrape(metricsAddr string) (series, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /metrics of %s: %w", metricsAddr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics of %s: status %d", metricsAddr, resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		return nil, fmt.Errorf("/metrics of %s is malformed: %w", metricsAddr, err)
	}
	return parseExposition(body)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a stat line.
// The command name (field 2) may contain spaces, so fields are counted
// from the closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable CPU fields in stat line %q", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
