// Fixture for the cmd/ allowlist: packages under repro/cmd/ are HTTP
// plumbing and may read the host clock and start goroutines. No want
// comments — the analyzers must stay silent here.
package plumbing

import "time"

func Uptime(start time.Time) time.Duration {
	time.Sleep(time.Millisecond)
	go func() {}()
	return time.Since(start)
}
