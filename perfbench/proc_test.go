package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// spawner stands in for a measured process: it records its own pid (the
// process group id), starts two background descendants, records their
// pids, and waits on them.
const spawner = `#!/usr/bin/env bash
echo $$ > "$PIDS.leader"
sleep 300 & echo $! >> "$PIDS"
bash -c 'sleep 300' & echo $! >> "$PIDS"
echo started > "$PIDS.ready"
wait
`

func writeSpawner(t *testing.T) (script, pids string) {
	t.Helper()
	dir := t.TempDir()
	script = filepath.Join(dir, "spawner.sh")
	if err := os.WriteFile(script, []byte(spawner), 0o755); err != nil {
		t.Fatal(err)
	}
	pids = filepath.Join(dir, "pids")
	t.Setenv("PIDS", pids)
	return script, pids
}

// waitReady waits until the spawner has started its descendants.
func waitReady(pids string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(pids + ".ready"); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("spawner did not start its descendants")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readPids(t *testing.T, path string) []int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, f := range strings.Fields(string(raw)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pid)
	}
	return out
}

// assertNoDescendant fails unless the spawner's group and every recorded
// descendant have exited and been reaped: a zombie still answers signal 0.
func assertNoDescendant(t *testing.T, pids string) {
	t.Helper()
	for _, pid := range readPids(t, pids) {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("descendant %d survived (kill 0: %v)", pid, err)
		}
	}
	leader := readPids(t, pids+".leader")[0]
	if err := syscall.Kill(-leader, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("process group %d survived (kill 0: %v)", leader, err)
	}
}

func TestCancelKillsAndReapsWholeGroup(t *testing.T) {
	if err := becomeSubreaper(); err != nil {
		t.Fatal(err)
	}
	script, pids := writeSpawner(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cmd := groupCommand(ctx, script)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := waitReady(pids); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := waitGroup(cmd); err == nil {
		t.Error("a killed command reported success")
	}
	assertNoDescendant(t, pids)
}

func TestInterruptedRunLeavesNoDescendant(t *testing.T) {
	if err := becomeSubreaper(); err != nil {
		t.Fatal(err)
	}
	script, pids := writeSpawner(t)
	w, _ := lookupWorkload("paper")
	b := &bench{w: w, seed: 1, cli: script} // the spawner stands in for the CLI
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan error, 1)
	go func() {
		err := waitReady(pids)
		cancel() // interrupt the run midway
		ready <- err
	}()
	start := time.Now()
	_, err := b.runProcess(ctx, false)
	if rerr := <-ready; rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runProcess = %v, want %v", err, context.Canceled)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("the interrupted run took %v to return", d)
	}
	assertNoDescendant(t, pids)
}

func TestProbeStopsAtFirstRow(t *testing.T) {
	if err := becomeSubreaper(); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(t.TempDir(), "rows.sh")
	row := `{"workload":"w","variant":{"label":"v"},"threads":1,"seed":1,"stats":{},"digest":"d","wall_ns":1000}`
	body := fmt.Sprintf("#!/usr/bin/env bash\nsleep 0.05\necho '%s' >&%d\nsleep 300\n", row, rowsFD)
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	w, _ := lookupWorkload("paper")
	b := &bench{w: w, seed: 1, cli: script}
	p, err := b.runProcess(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if p.err != nil || len(p.rows) != 1 {
		t.Fatalf("probe: err %v, %d rows", p.err, len(p.rows))
	}
	if p.setup < 0.04 || p.setup > 10 {
		t.Errorf("probe set-up %gs, want about 0.05s", p.setup)
	}
	if p.wall > 10 {
		t.Errorf("probe ran %gs; it should stop at its first row", p.wall)
	}
}

// helperEnv makes the test binary act as a benchmark that starts one
// measured process and then hangs, so a test can kill it outright.
const helperEnv = "PERFBENCH_TEST_HELPER_PIDFILE"

func TestMain(m *testing.M) {
	if path := os.Getenv(helperEnv); path != "" {
		cmd := groupCommand(context.Background(), "sleep", "300")
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, []byte(strconv.Itoa(cmd.Process.Pid)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		select {}
	}
	os.Exit(m.Run())
}

func TestKilledBenchmarkTakesItsChildDown(t *testing.T) {
	if err := becomeSubreaper(); err != nil {
		t.Fatal(err)
	}
	pidFile := filepath.Join(t.TempDir(), "child")
	helper := exec.Command(os.Args[0], "-test.run=^$")
	helper.Env = append(os.Environ(), helperEnv+"="+pidFile)
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	var child int
	deadline := time.Now().Add(10 * time.Second)
	for child == 0 {
		if raw, err := os.ReadFile(pidFile); err == nil && len(raw) > 0 {
			child, _ = strconv.Atoi(string(raw))
		} else if time.Now().After(deadline) {
			helper.Process.Kill()
			helper.Wait()
			t.Fatal("helper did not start its child")
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := helper.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	helper.Wait()
	for deadline = time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		reapOrphans() // the orphan is reparented to this subreaper
		if err := syscall.Kill(child, 0); errors.Is(err, syscall.ESRCH) {
			return
		}
		if time.Now().After(deadline) {
			syscall.Kill(child, syscall.SIGKILL)
			t.Fatalf("child %d outlived the killed benchmark", child)
		}
	}
}
