package main

import (
	"bufio"
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

// deployment is the README's sharded deployment: dfg-serve in frontier mode
// over two dfg-worker processes named w1 and w2, all with default flags
// except listen addresses, store directories and (for store-churn) the
// worker report LRU size. The trace run's deployment has no worker
// processes: its workers are hosted in the benchmark.
type deployment struct {
	dir     string // holds w1/, w2/ (stores) and the processes' logs
	url     string // dfg-serve base URL
	serve   *proc
	workers []*proc
}

// backendNames are the ring identities the README's example uses.
var backendNames = []string{"w1", "w2"}

// startAttempts bounds how often a deployment is started on fresh ports
// when a process dies during start-up (another process took its port
// between the probe and the bind).
const startAttempts = 3

// freePorts asks the kernel for n distinct unused loopback ports. The
// listeners are held until all n are known, so no port repeats.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// proc is one started server process.
type proc struct {
	cmd  *exec.Cmd
	log  string        // path of its combined output
	done chan struct{} // closed once the process has exited
}

// logTail returns the last line of the process's output.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // best effort: only used in an error message
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// startProc launches one server binary with its output in logPath. The
// child is killed if the benchmark dies first.
func startProc(bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// startDeployment launches the two workers and dfg-serve and waits until
// dfg-serve answers /healthz and both workers accept connections. The
// store directories under dir are reused if they exist, which is how the
// correctness gate reaches the store tier.
func startDeployment(binDir, dir string, reports int, hc *http.Client) (*deployment, error) {
	var err error
	for attempt := 0; attempt < startAttempts; attempt++ {
		var d *deployment
		if d, err = tryDeployment(binDir, dir, reports, hc); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryDeployment(binDir, dir string, reports int, hc *http.Client) (*deployment, error) {
	addrs, err := freePorts(len(backendNames) + 1)
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, url: "http://" + addrs[0]}
	var backends []string
	for i, name := range backendNames {
		args := []string{"-addr", addrs[i+1], "-store", filepath.Join(dir, name)}
		if reports > 0 {
			args = append(args, "-reports", strconv.Itoa(reports))
		}
		w, err := startProc(filepath.Join(binDir, "dfg-worker"), filepath.Join(dir, name+".log"), args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
		backends = append(backends, name+"="+addrs[i+1])
	}
	if d.serve, err = startProc(filepath.Join(binDir, "dfg-serve"), filepath.Join(dir, "serve.log"),
		"-addr", addrs[0], "-backends", strings.Join(backends, ",")); err != nil {
		d.stop()
		return nil, err
	}
	if err := d.waitReady(addrs[1:], hc); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// startServe launches dfg-serve over the given "name=addr" backends and
// waits for it to become healthy.
func startServe(binDir, dir string, backends []string, hc *http.Client) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	for attempt := 0; attempt < startAttempts; attempt++ {
		var addrs []string
		if addrs, err = freePorts(1); err != nil {
			return nil, err
		}
		d := &deployment{dir: dir, url: "http://" + addrs[0]}
		if d.serve, err = startProc(filepath.Join(binDir, "dfg-serve"), filepath.Join(dir, "serve.log"),
			"-addr", addrs[0], "-backends", strings.Join(backends, ",")); err != nil {
			return nil, err
		}
		if err = d.waitReady(nil, hc); err == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, err
}

// waitReady polls until every worker accepts TCP connections and dfg-serve
// answers /healthz, failing as soon as one of the processes exits.
func (d *deployment) waitReady(workerAddrs []string, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	up := func() error {
		for _, p := range append([]*proc{d.serve}, d.workers...) {
			if p.exited() {
				return fmt.Errorf("%s exited during start-up: %s", filepath.Base(p.cmd.Path), p.logTail())
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deployment in %s not ready after 30s", d.dir)
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	for _, a := range workerAddrs {
		for {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if err := up(); err != nil {
				return err
			}
		}
	}
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := up(); err != nil {
			return err
		}
	}
}

// pids lists the three server processes, dfg-serve first.
func (d *deployment) pids() []int {
	out := []int{d.serve.cmd.Process.Pid}
	for _, w := range d.workers {
		out = append(out, w.cmd.Process.Pid)
	}
	return out
}

// stop terminates every process gracefully (SIGTERM, then SIGKILL after a
// grace period) and waits for each to exit.
func (d *deployment) stop() {
	procs := append([]*proc{d.serve}, d.workers...)
	for _, p := range procs {
		if p != nil {
			p.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	d.serve, d.workers = nil, nil
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// space-separated. utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	// Linux reports these in USER_HZ ticks, which is 100 on every
	// architecture Go supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// totalCPU sums procCPU over pids.
func totalCPU(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// clientTimeout bounds one HTTP request.
const clientTimeout = 60 * time.Second

// httpClient returns a client whose transport opens at most conns
// connections in total, reused across requests.
func httpClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: clientTimeout,
	}
}
