package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is a decision server process the benchmark started: pdpd itself,
// or this binary in -serve mode for the traced run.
type server struct {
	cmd    *exec.Cmd
	addr   string
	argv   []string
	exited chan struct{}
}

// freeAddr reserves a loopback port for a spawned server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts bin and blocks until /healthz answers. Both pdpd and the
// traced server register /healthz only after the policy base is loaded,
// the WAL seeded and the base compiled, so readiness is set-up complete.
func spawn(ctx context.Context, bin string, args []string, addr, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, argv: append([]string{bin}, args...), exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not an error
		close(s.exited)
	}()
	if err := s.waitReady(ctx, 60*time.Second); err != nil {
		s.stop()
		tail, _ := os.ReadFile(logPath)
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return nil, fmt.Errorf("%s not ready: %w\n%s", bin, err, tail)
	}
	return s, nil
}

func (s *server) waitReady(ctx context.Context, timeout time.Duration) error {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during set-up")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no /healthz answer within %v", timeout)
}

// stop sends SIGTERM (pdpd's graceful path flushes the WAL) and waits for
// the process to exit, escalating to SIGKILL after 10s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpu is the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for user space.
const clockTicks = 100

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
