// Fixture for the goroutine analyzer: every go statement is a finding.
package goroutine

func work() {}

func bad() {
	go work()      // want `go statement in simulation code`
	go func() {}() // want `go statement in simulation code`
}

func good() { work() }
