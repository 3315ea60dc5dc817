package main

import "errors"

// jossrun's remote-mode exit codes. Scripts retrying around the CLI
// need to know whether trying again can help: a daemon that was
// overloaded, draining or unreachable may admit the same request later
// (exitTransient), while a request the daemon rejected as malformed
// never will (exitPermanent).
const (
	exitPermanent = 1 // permanent failure: 4xx protocol rejection, bad response
	exitUsage     = 2 // bad flags or flag combinations
	exitTransient = 3 // transient retries exhausted: worth retrying
)

// exitCode classifies a remote-mode error: exhausted transient retries
// (*TransientError, which carries the final Retry-After/backoff state
// in its message) are retriable; anything else is permanent.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var te *TransientError
	if errors.As(err, &te) {
		return exitTransient
	}
	return exitPermanent
}
