package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// proc is one child process under test. Every proc is registered in
// live until it has been waited for, so an early exit can stop them
// all (see stopAll).
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

// startProc execs bin in its own process group with stdout and stderr
// going to logPath.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	liveMu.Lock()
	defer liveMu.Unlock()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live[p] = true
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		liveMu.Lock()
		delete(live, p)
		liveMu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM to the process group, escalating to SIGKILL after
// grace, and waits for the process to end. It returns the process's
// peak resident set size in MB (from wait4's rusage).
func (p *proc) stop(grace time.Duration) float64 {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGTERM) // already gone is fine
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	}
	return peakRSSMB(p.cmd.ProcessState)
}

// wait blocks until the process exits by itself and returns its error.
func (p *proc) wait() error {
	<-p.done
	return p.err
}

func peakRSSMB(st *os.ProcessState) float64 {
	if st == nil {
		return 0
	}
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// stopAll kills every live child and waits for each to end. It is the
// exit path for failures and signals.
func stopAll() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
		<-p.done
	}
}

// runProc runs bin to completion and returns its wall time and peak
// RSS. Output goes to logPath.
func runProc(bin string, args []string, logPath string) (time.Duration, float64, error) {
	start := time.Now()
	p, err := startProc(bin, args, logPath)
	if err != nil {
		return 0, 0, err
	}
	err = p.wait()
	wall := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("%s %v: %w (log: %s)", bin, args, err, logPath)
	}
	return wall, peakRSSMB(p.cmd.ProcessState), nil
}

// freeAddr reserves a loopback port for a server to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is a running server under test.
type server struct {
	base string         // http://host:port
	stop func() float64 // stops it and returns its peak RSS in MB
}

// startServer execs textureserver with args plus a fresh -addr and
// polls /readyz every 2 ms until it answers 200. It returns the server
// and the time from exec to ready.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", addr}, args...)
	poll := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer poll.CloseIdleConnections()
	start := time.Now()
	p, err := startProc(bin, args, logPath)
	if err != nil {
		return nil, 0, err
	}
	base := "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for {
		if ready(ctx, poll, base+"/readyz") {
			return &server{base: base, stop: func() float64 { return p.stop(15 * time.Second) }}, time.Since(start), nil
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("textureserver exited before ready: %v (log: %s)", p.err, logPath)
		case <-ctx.Done():
			p.stop(time.Second)
			return nil, 0, fmt.Errorf("textureserver not ready within 60s (log: %s)", logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func ready(ctx context.Context, c *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
