// Package buildinfo carries the ldflags-injected build identity the
// daemons report through /healthz and their startup logs:
//
//	go build -ldflags "\
//	  -X joss/internal/buildinfo.Version=v1.2.3 \
//	  -X joss/internal/buildinfo.Commit=$(git rev-parse --short HEAD) \
//	  -X joss/internal/buildinfo.Date=$(date -u +%Y-%m-%dT%H:%M:%SZ)" ./cmd/jossd
//
// Un-injected builds report "dev" so the fields are always present and
// an operator can tell a stray developer binary from a release.
package buildinfo

var (
	// Version is the release tag ("dev" when not injected).
	Version = "dev"
	// Commit is the short VCS revision ("" when not injected).
	Commit = ""
	// Date is the UTC build timestamp ("" when not injected).
	Date = ""
)

// String renders the identity as "version (commit, date)" with the
// empty fields dropped.
func String() string {
	s := Version
	switch {
	case Commit != "" && Date != "":
		s += " (" + Commit + ", " + Date + ")"
	case Commit != "":
		s += " (" + Commit + ")"
	case Date != "":
		s += " (" + Date + ")"
	}
	return s
}
