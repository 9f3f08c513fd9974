package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	readyTimeout   = 30 * time.Second
	requestTimeout = 30 * time.Second
	stopGrace      = 5 * time.Second
	// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
	// Linux fixes it at 100 for every architecture Go runs on.
	clockTick = 100
)

// paths locates the checkout the benchmark runs in. Everything it
// writes goes under out (git-ignored).
type paths struct {
	root     string // repo root: holds go.mod and cmd/renderd
	bench    string // this directory
	out      string
	renderd  string
	registry string
	golden   string
}

// locate finds the repo root from the working directory, which is
// bench/ under `go run -C bench .` and may be the root itself.
func locate() (paths, error) {
	wd, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for _, root := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "renderd", "main.go")); err == nil {
			b := filepath.Join(root, "bench")
			return paths{
				root: root, bench: b, out: filepath.Join(b, "out"),
				renderd:  filepath.Join(b, "out", "renderd"),
				registry: filepath.Join(b, "models.json"),
				golden:   filepath.Join(b, "golden.json"),
			}, nil
		}
	}
	return paths{}, fmt.Errorf("cmd/renderd not found from %s: run from the repo root or bench/", wd)
}

// buildRenderd compiles the server under test from the checkout's
// source. The toolchain skips the work when the binary is current.
func buildRenderd(ctx context.Context, p paths) error {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", p.renderd, "./cmd/renderd")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/renderd: %w\n%s", err, out)
	}
	return nil
}

// server is one renderd subprocess in its own process group, serving a
// private copy of the registry (its calibrator rewrites the file).
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	dir    string // per-run temp dir: registry copy + log
	logf   *os.File
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before renderd binds it; a collision in that gap fails the
// /readyz wait rather than passing silently.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServer(ctx context.Context, p paths, flags []string) (*server, error) {
	dir, err := os.MkdirTemp(p.out, "run-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, exited: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	models, err := os.ReadFile(p.registry)
	if err != nil {
		return nil, err
	}
	reg := filepath.Join(dir, "models.json")
	if err := os.WriteFile(reg, models, 0o644); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if s.logf, err = os.Create(filepath.Join(dir, "renderd.log")); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s.base = "http://" + addr
	args := append([]string{"-registry", reg, "-addr", addr}, flags...)
	s.cmd = exec.Command(p.renderd, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.logf, s.logf
	// Own process group so stop can signal everything renderd starts;
	// Pdeathsig so a benchmark that is itself killed leaves no server.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, s.logTail(20))
	}
	ok = true
	return s, nil
}

func (s *server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("renderd exited before it was ready: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("renderd not ready within " + readyTimeout.String())
}

// stop ends the process group (SIGTERM, then SIGKILL after a grace
// period), waits for it, and removes the temp dir. Safe on a partly
// started server.
func (s *server) stop() {
	if s.cmd != nil {
		pgid := -s.cmd.Process.Pid
		_ = syscall.Kill(pgid, syscall.SIGTERM) // ESRCH if it already exited
		select {
		case <-s.exited:
		case <-time.After(stopGrace):
			_ = syscall.Kill(pgid, syscall.SIGKILL)
			<-s.exited
		}
		s.cmd = nil
	}
	if s.logf != nil {
		s.logf.Close()
	}
	os.RemoveAll(s.dir)
}

func (s *server) logTail(lines int) string {
	b, err := os.ReadFile(filepath.Join(s.dir, "renderd.log"))
	if err != nil {
		return ""
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return "--- renderd log tail ---\n" + strings.Join(all, "\n")
}

// cpuSeconds is the server's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// comm (field 2) may contain spaces; fields are counted after its ')'.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
