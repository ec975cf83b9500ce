package main

// The system under test: sketchd daemons, and for cluster workloads a
// sketchgw gateway in front of them, each a separate process on loopback
// so that the generator shares no runtime or GC with the system and each
// process's CPU and memory can be read from /proc.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	out  *tail
	done chan struct{} // closed once the process has ended and been reaped
}

// fleet is one set of running processes. front receives the traffic: the
// gateway, or the lone daemon.
type fleet struct {
	procs []*proc
	front *proc
}

// startFleet starts the workload's processes. Only flags that the
// benchmark relies on are passed (README.md lists them); traced fleets
// expose /metrics and mint trace IDs.
func startFleet(binDir string, w workload, traced bool) (*fleet, error) {
	n := w.peers
	if w.cluster() {
		n++
	}
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	common := []string{
		"-dim", strconv.Itoa(w.dim),
		"-alpha", strconv.FormatFloat(alpha, 'g', -1, 64),
		"-seed", strconv.Itoa(sysSeed),
		"-metrics=" + strconv.FormatBool(traced),
	}
	var peers []string
	for i := 0; i < w.peers; i++ {
		args := append([]string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-sketch", w.sketch,
			"-m", strconv.Itoa(streamM),
			"-k", strconv.Itoa(w.k),
			"-shards", strconv.Itoa(shards),
		}, common...)
		if w.window > 0 {
			args = append(args, "-window", strconv.FormatInt(w.window, 10))
		}
		p, err := startProc(filepath.Join(binDir, "sketchd"), fmt.Sprintf("sketchd-%d", i), ports[i], args)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		peers = append(peers, p.url)
	}
	f.front = f.procs[0]
	if w.cluster() {
		args := append([]string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[w.peers]),
			"-peers", strings.Join(peers, ","),
			"-trace=" + strconv.FormatBool(traced),
		}, common...)
		p, err := startProc(filepath.Join(binDir, "sketchgw"), "sketchgw", ports[w.peers], args)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.front = p
	}
	return f, nil
}

func startProc(bin, name string, port int, args []string) (*proc, error) {
	p := &proc{name: name, url: fmt.Sprintf("http://127.0.0.1:%d", port), out: &tail{}, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	// The system dies with the benchmark even if the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// waitHealthy polls every process's /healthz until it answers 200.
func (f *fleet) waitHealthy(ctx context.Context, client *http.Client) error {
	for _, p := range f.procs {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ok, exited := p.healthy(ctx, client); ok {
				break
			} else if exited {
				return fmt.Errorf("%s exited during start-up: %s", p.name, p.out)
			}
			if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *proc) healthy(ctx context.Context, client *http.Client) (ok, exited bool) {
	select {
	case <-p.done:
		return false, true
	default:
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return false, false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, false
	}
	drain(resp)
	return resp.StatusCode == http.StatusOK, false
}

// stop kills every process and waits for each to end. The benchmark
// keeps no state in the system between runs, so there is nothing to
// shut down gracefully.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range f.procs {
		<-p.done
	}
}

// cpuSeconds returns each process's user+system CPU time so far.
func (f *fleet) cpuSeconds() ([]float64, error) {
	out := make([]float64, len(f.procs))
	for i, p := range f.procs {
		v, err := procCPU(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// peakRSSMB returns each process's peak resident set size (VmHWM) in MiB.
func (f *fleet) peakRSSMB() ([]float64, error) {
	out := make([]float64, len(f.procs))
	for i, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		v, err := statusKB(b, "VmHWM:")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = v / 1024
	}
	return out, nil
}

// selfCPU returns the generator's own user+system CPU time in seconds,
// at microsecond resolution.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// procCPU reads utime+stime of /proc/<pid>/stat in seconds.
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3, utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%s/stat", pid)
	}
	fs := strings.Fields(string(b[i+1:]))
	if len(fs) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fs[11], 64)
	st, err2 := strconv.ParseFloat(fs[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%s/stat times", pid)
	}
	return (ut + st) / clockTicks, nil
}

// statusKB parses one "Key: N kB" line of /proc/<pid>/status.
func statusKB(status []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no %s line", key)
}

// tail keeps the last few KiB a process wrote, for error reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > tailBytes {
		t.buf = append(t.buf[:0], t.buf[n-tailBytes:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
