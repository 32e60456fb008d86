package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running `ldprecover serve` process on a loopback port
// the kernel picked (-addr 127.0.0.1:0; the address is read back from
// the banner the server prints).
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	role string // -role, or "single"

	stderr  lockedBuffer
	drained chan struct{} // closed once stdout reached EOF
	waitErr chan error    // the exit status, once
}

// lockedBuffer keeps the tail of a process's stderr for error reports.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() < 64<<10 {
		b.buf.Write(p)
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(b.buf.String())
}

var bannerAddr = regexp.MustCompile(`on http://(127\.0\.0\.1:[0-9]+)`)

// procs tracks every server this process started, so that every exit
// path — error, signal, panic — can kill them.
var procs struct {
	mu   sync.Mutex
	live map[*server]bool
}

// startServer spawns the server binary with args plus a loopback
// ephemeral address and returns once the banner named its address.
func startServer(bin string, args []string) (*server, error) {
	args = append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// Die with the benchmark even if it is killed before its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, role: "single", drained: make(chan struct{}), waitErr: make(chan error, 1)}
	for i, a := range args[:len(args)-1] {
		if a == "-role" {
			s.role = args[i+1]
		}
	}
	cmd.Stderr = &s.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = make(map[*server]bool)
	}
	procs.live[s] = true
	procs.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// Keep reading to EOF: a server blocked on a full stdout pipe
		// would stall its seals.
		defer close(s.drained)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if !found {
				if m := bannerAddr.FindSubmatch(sc.Bytes()); m != nil {
					found = true
					addrc <- string(m[1])
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	go func() {
		<-s.drained
		s.waitErr <- cmd.Wait()
	}()
	select {
	case s.addr = <-addrc:
		return s, nil
	case <-s.drained:
		s.kill()
		return nil, fmt.Errorf("server exited before listening: %s", s.stderr.String())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, errors.New("server printed no listen address within 30s")
	}
}

// url is the server's base URL.
func (s *server) url() string { return "http://" + s.addr }

// kill stops the process and waits until it has exited and its output
// is drained.
func (s *server) kill() {
	procs.mu.Lock()
	live := procs.live[s]
	delete(procs.live, s)
	procs.mu.Unlock()
	if !live {
		return
	}
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.waitErr
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.drained:
		return false
	default:
		return true
	}
}

// killAll stops every server still running.
func killAll() {
	procs.mu.Lock()
	var all []*server
	for s := range procs.live {
		all = append(all, s)
	}
	procs.mu.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// waitReady polls /v1/stats until the server answers 200.
func waitReady(ctx context.Context, s *server) error {
	c := &http.Client{Timeout: 2 * time.Second}
	defer c.CloseIdleConnections()
	for {
		resp, err := c.Get(s.url() + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !s.alive() {
			return fmt.Errorf("server exited during start-up: %s", s.stderr.String())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server at %s not ready: %w", s.addr, ctx.Err())
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 for every architecture's user-space ABI.
const clkTck = 100

// procCPU returns a process's user+sys CPU seconds from /proc/<pid>/stat
// ("self" for this process).
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime", pid)
	}
	return float64(ut+st) / clkTck, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			if kb <= 0 {
				return 0, fmt.Errorf("/proc/%s/status: VmHWM is %v kB", pid, kb)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", pid)
}

// pid is the server's process id as a /proc path element.
func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// printResources writes each server's CPU seconds and peak RSS.
func printResources(ss []*server) error {
	for _, s := range ss {
		c, err := procCPU(s.pid())
		if err != nil {
			return err
		}
		m, err := procHWM(s.pid())
		if err != nil {
			return err
		}
		fmt.Printf("#   server pid %s (%s): cpu %.2fs since start, peak rss %.1f MB\n", s.pid(), s.role, c, m)
	}
	return nil
}

// serversCPU sums user+sys CPU seconds over the servers.
func serversCPU(ss []*server) (float64, error) {
	var total float64
	for _, s := range ss {
		c, err := procCPU(s.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// serversHWM sums peak RSS in MB over the servers.
func serversHWM(ss []*server) (float64, error) {
	var total float64
	for _, s := range ss {
		m, err := procHWM(s.pid())
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}
