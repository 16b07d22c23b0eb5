package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tailLines is how many of a child's last output lines an error report
// carries.
const tailLines = 25

// proc is one spawned fabricnet process. Its combined output is split into
// lines as it arrives; waiters are woken by the line that satisfies them,
// so readiness is waited on, never slept for.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd

	started time.Time

	mu      sync.Mutex
	partial []byte
	lines   []lineHit // every completed line with its arrival time
	waiters []*lineWaiter

	exited  chan struct{}
	exitErr error
}

// lineWaiter is one pending wait: the first line match accepts is sent,
// with its arrival time, on hit.
type lineWaiter struct {
	match func(string) bool
	hit   chan lineHit
}

type lineHit struct {
	line string
	at   time.Time
}

// Write implements io.Writer for the child's stdout and stderr.
func (p *proc) Write(b []byte) (int, error) {
	now := time.Now()
	type wake struct {
		w   *lineWaiter
		hit lineHit
	}
	var woken []wake
	p.mu.Lock()
	p.partial = append(p.partial, b...)
	for {
		i := bytes.IndexByte(p.partial, '\n')
		if i < 0 {
			break
		}
		hit := lineHit{line: string(p.partial[:i]), at: now}
		p.partial = p.partial[i+1:]
		p.lines = append(p.lines, hit)
		kept := p.waiters[:0]
		for _, w := range p.waiters {
			if w.match(hit.line) {
				woken = append(woken, wake{w, hit})
			} else {
				kept = append(kept, w)
			}
		}
		p.waiters = kept
	}
	p.mu.Unlock()
	for _, k := range woken {
		k.w.hit <- k.hit // buffered; a waiter is woken once
	}
	return len(b), nil
}

// tail returns the child's last output lines, for error reports.
func (p *proc) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	from := len(p.lines) - tailLines
	if from < 0 {
		from = 0
	}
	var b strings.Builder
	for _, l := range p.lines[from:] {
		b.WriteString(l.line)
		b.WriteByte('\n')
	}
	return b.String()
}

// waitLine blocks until the child has printed a line match accepts (lines
// printed before the call count), the child exits, or the timeout passes.
func (p *proc) waitLine(what string, match func(string) bool, timeout time.Duration) (lineHit, error) {
	w := &lineWaiter{match: match, hit: make(chan lineHit, 1)}
	p.mu.Lock()
	for _, l := range p.lines {
		if match(l.line) {
			p.mu.Unlock()
			return l, nil
		}
	}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case hit := <-w.hit:
		return hit, nil
	case <-p.exited:
		// The line may have arrived together with the exit.
		select {
		case hit := <-w.hit:
			return hit, nil
		default:
		}
		return lineHit{}, fmt.Errorf("%s exited (%v) before %s; last output:\n%s", p.name, p.exitErr, what, p.tail())
	case <-timer.C:
		return lineHit{}, fmt.Errorf("%s: timed out after %v waiting for %s; last output:\n%s", p.name, timeout, what, p.tail())
	}
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on (\S+)`)
)

// waitAddr waits for a line matching re and returns its first submatch.
func (p *proc) waitAddr(what string, re *regexp.Regexp, timeout time.Duration) (string, error) {
	hit, err := p.waitLine(what, re.MatchString, timeout)
	if err != nil {
		return "", err
	}
	return re.FindStringSubmatch(hit.line)[1], nil
}

// stop SIGTERMs the child and reaps it, escalating to SIGKILL when it does
// not exit in time. Safe to call more than once and on an exited child.
func (p *proc) stop(patience time.Duration) error {
	select {
	case <-p.exited:
		return p.exitErr
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // races with exit: a gone process needs no signal
	timer := time.NewTimer(patience)
	defer timer.Stop()
	select {
	case <-p.exited:
		return p.exitErr
	case <-timer.C:
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s ignored SIGTERM for %v and was killed; last output:\n%s", p.name, patience, p.tail())
	}
}

// procSet owns every child and scratch directory of one benchmark process,
// so any exit path — a failed check, a stuck phase, Ctrl-C — reaps the
// children and removes the directories.
type procSet struct {
	bin     string // fabricnet binary
	scratch string // parent of every temp dir, inside the checkout

	mu    sync.Mutex
	procs []*proc
	dirs  []string
}

// spawn starts one fabricnet process.
func (s *procSet) spawn(name string, args ...string) (*proc, error) {
	p := &proc{name: name, args: args, exited: make(chan struct{})}
	cmd := exec.Command(s.bin, args...)
	cmd.Stdout = p
	cmd.Stderr = p
	p.cmd = cmd
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.exitErr = cmd.Wait()
		close(p.exited)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

// tempDir creates a scratch directory removed by closeAll.
func (s *procSet) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(s.scratch, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(s.scratch, pattern)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.dirs = append(s.dirs, dir)
	s.mu.Unlock()
	return dir, nil
}

// closeAll reaps every child still running and removes every scratch
// directory. It is the failure path — an error, a stuck phase, Ctrl-C — so
// exit statuses no longer matter and order is not kept: every child is
// SIGTERMed at once and whatever has not exited shortly after (a peer holds
// in-flight submissions until its gateway times out) is killed.
func (s *procSet) closeAll() {
	s.mu.Lock()
	procs := append([]*proc(nil), s.procs...)
	dirs := append([]string(nil), s.dirs...)
	s.procs, s.dirs = nil, nil
	s.mu.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited child needs no signal
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, p := range procs {
		select {
		case <-p.exited:
		case <-ctx.Done():
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d)
	}
	_ = os.Remove(s.scratch) // only succeeds when empty: concurrent runs share the parent
}

// tails renders the last output of every live child, for stuck-phase
// reports.
func (s *procSet) tails() string {
	s.mu.Lock()
	procs := append([]*proc(nil), s.procs...)
	s.mu.Unlock()
	var b strings.Builder
	for _, p := range procs {
		fmt.Fprintf(&b, "--- %s (%s)\n%s\n", p.name, strings.Join(p.args, " "), p.tail())
	}
	return b.String()
}

// findRepoRoot walks up from the working directory to the directory whose
// go.mod declares the fabriccrdt module: the benchmark runs from the root
// (`bash bench/run.sh`) and from its own module directory (`go -C bench run .`).
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module fabriccrdt\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the fabriccrdt repository: no go.mod declaring `module fabriccrdt` above the working directory")
		}
		dir = parent
	}
}

// buildFabricnet compiles ./cmd/fabricnet into the checkout's build
// directory and returns the binary path and the build time. The Go caches
// are the environment's: bench/run.sh points them into the checkout.
func buildFabricnet(root, buildDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(buildDir, "fabricnet")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/fabricnet")
	cmd.Dir = root
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("building ./cmd/fabricnet: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}
