package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"domd/domdbench/internal/workload"
)

// serverProc is one running `domd serve` child.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
	err    error // the Wait result, valid once exited is closed
}

// command builds an exec.Cmd that is killed if this process dies, so an
// interrupted run leaves no child behind.
func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// startServer execs domd serve with args plus a free loopback address,
// its stdout and stderr (the request trace log) going to logPath, and
// waits until /readyz answers 200.
func startServer(bin string, args []string, logPath string, client *http.Client) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := spawn(bin, append([]string{"serve", "-addr", addr}, args...), logPath)
		if err != nil {
			return nil, err
		}
		p.base = "http://" + addr
		if lastErr = p.awaitReady(client, 150*time.Second); lastErr == nil {
			return p, nil
		}
		if err := p.stop(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("domd serve never became ready (log %s): %w", logPath, lastErr)
}

func spawn(bin string, args []string, logPath string) (*serverProc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := command(context.Background(), bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close() //lint:ignore droppederr best-effort close; the start error is returned
		return nil, err
	}
	p := &serverProc{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// freeAddr picks a free loopback port. Another process could take it
// before the server binds; startServer retries when that happens.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (p *serverProc) awaitReady(client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("domd serve exited: %v", p.err)
		default:
		}
		if status, _, err := get(client, p.base+"/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("not ready after %v", limit)
}

// stop sends SIGTERM (a graceful drain that closes the WAL), escalates
// to SIGKILL after 20 s, and returns once the process has exited.
func (p *serverProc) stop() error {
	defer p.log.Close()
	select {
	case <-p.exited:
		return nil
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(20 * time.Second):
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	<-p.exited
	return fmt.Errorf("domd serve ignored SIGTERM for 20 s")
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// do sends one operation and reads the whole answer.
func do(client *http.Client, base string, op workload.Op) (int, []byte, error) {
	method, target, body := op.Request()
	req, err := http.NewRequestWithContext(context.Background(), method, base+target, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op.Key != "" {
		req.Header.Set("Idempotency-Key", op.Key)
	}
	return send(client, req)
}

func get(client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return send(client, req)
}

func send(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

// scrape reads GET /metrics into series → value. Series keep their
// rendered labels (`name{label="v"}`).
func scrape(client *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("GET /metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bad line %q", line)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta is how much one metric family, summed over its series, rose
// between two scrapes.
func delta(before, after map[string]float64, name string) float64 {
	sum := func(m map[string]float64) float64 {
		var s float64
		for k, v := range m {
			if k == name || strings.HasPrefix(k, name+"{") {
				s += v
			}
		}
		return s
	}
	return sum(after) - sum(before)
}

// userHZ is the kernel's clock-tick rate for /proc times (USER_HZ, 100 on
// every mainstream Linux architecture).
const userHZ = 100

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}

// procField reads one "Key: value" line of /proc/<pid>/<file> as an
// integer (the first number on the line).
func procField(pid int, file, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s has no %s", pid, file, key)
}
