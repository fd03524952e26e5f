package core

import (
	"fmt"
	"time"

	"acacia/internal/d2d"
	"acacia/internal/epc"
	"acacia/internal/pkt"
)

// ServiceInfo mirrors the Android Parcelable the prototype exchanges
// between CI applications and the device manager: the user's interest
// expression and, on discovery, the matched message with its radio
// measurements.
type ServiceInfo struct {
	// ServiceName is the CI service (LTE-direct service name).
	ServiceName string
	// Interest is the modem filter expression for the user's interest
	// (e.g. "laptops" within the retail service). A match triggers MEC
	// connectivity setup.
	Interest d2d.Expression
	// ServiceWide, when non-zero, is an additional broader subscription
	// whose matches are forwarded to the application without triggering
	// connectivity — the retail app uses it to hear every landmark of the
	// store for localization.
	ServiceWide d2d.Expression
}

// Discovery is a matched service discovery delivered to a CI application.
type Discovery struct {
	Message d2d.DiscoveryMessage
}

// CIApp is the interface a CI application registers with the device
// manager: discovery notifications and connectivity lifecycle callbacks.
type CIApp interface {
	// OnDiscovery is invoked for every matching service discovery message
	// (after the first one has triggered connectivity setup).
	OnDiscovery(d Discovery)
	// OnConnected is invoked when the dedicated MEC bearer toward server
	// is live and the application may start using its CI server.
	OnConnected(server pkt.Addr)
	// OnDisconnected is invoked after connectivity release or setup
	// failure (err non-nil on failure).
	OnDisconnected(err error)
}

// DeviceManager is the ACACIA on-device daemon: it proxies discovery
// between CI applications and the LTE-direct modem, and manages MEC
// connectivity on demand — requesting a dedicated bearer from the MRS on
// the first interest match and releasing it when the application exits.
type DeviceManager struct {
	ue      *epc.UE
	dev     *d2d.Device
	mrs     *MRS
	enbName string

	apps map[string]*appState
}

type appState struct {
	info      ServiceInfo
	app       CIApp
	sub       *d2d.Subscription
	wideSub   *d2d.Subscription
	requested bool
	connected bool
	// attempts counts consecutive failed connectivity requests for the
	// capped-backoff retry; retryPending guards against stacking timers.
	attempts     int
	retryPending bool
}

// retryMaxAttempts bounds a failed MRS request's retries, after which the
// device manager gives up until the next discovery match or manual trigger.
const retryMaxAttempts = 8

// RetryDelay is the deterministic backoff before retry attempt (from 0) of
// a failed MEC connectivity request: 500ms, 1s, 2s, then 4s. No RNG, so
// retries replay identically; the shift is capped first, so never overflows.
func RetryDelay(attempt int) time.Duration {
	return 500 * time.Millisecond << uint(min(attempt, 3))
}

// NewDeviceManager creates the daemon for a UE with its LTE-direct device.
// enbName tells the MRS which base station the UE is served by (context the
// network side already has; passed explicitly here).
func NewDeviceManager(ue *epc.UE, dev *d2d.Device, mrs *MRS, enbName string) *DeviceManager {
	return &DeviceManager{
		ue: ue, dev: dev, mrs: mrs, enbName: enbName,
		apps: make(map[string]*appState),
	}
}

// Register binds a CI application: the device manager installs the modem
// subscription for its interest. The first match triggers connectivity
// setup; all matches are forwarded to the application.
func (dm *DeviceManager) Register(info ServiceInfo, app CIApp) error {
	if _, dup := dm.apps[info.ServiceName]; dup {
		return fmt.Errorf("core: service %q already registered", info.ServiceName)
	}
	st := &appState{info: info, app: app}
	st.sub = dm.dev.Subscribe(info.Interest, func(msg d2d.DiscoveryMessage) {
		dm.onMatch(st, msg)
	})
	if info.ServiceWide != (d2d.Expression{}) {
		st.wideSub = dm.dev.Subscribe(info.ServiceWide, func(msg d2d.DiscoveryMessage) {
			// Broad matches inform the application (localization input)
			// but never trigger connectivity. Skip duplicates the interest
			// subscription already delivers.
			if st.info.Interest.Matches(msg.Code) {
				return
			}
			st.app.OnDiscovery(Discovery{Message: msg})
		})
	}
	dm.apps[info.ServiceName] = st
	return nil
}

// Unregister releases the application's subscription and MEC connectivity.
func (dm *DeviceManager) Unregister(serviceName string) error {
	st, ok := dm.apps[serviceName]
	if !ok {
		return fmt.Errorf("core: service %q not registered", serviceName)
	}
	st.sub.Cancel()
	if st.wideSub != nil {
		st.wideSub.Cancel()
	}
	st.requested = false // disarm any pending backoff retry
	delete(dm.apps, serviceName)
	if st.connected {
		dm.mrs.ReleaseConnectivity(dm.ue.Addr(), func(err error) {
			st.app.OnDisconnected(err)
		})
	}
	return nil
}

// onMatch handles a modem-filtered discovery match.
func (dm *DeviceManager) onMatch(st *appState, msg d2d.DiscoveryMessage) {
	st.app.OnDiscovery(Discovery{Message: msg})
	if st.requested {
		return
	}
	// First match: establish MEC connectivity on demand. This is the
	// design point that avoids a second always-on bearer — the extra
	// bearer exists only while a matching service is nearby and wanted.
	st.requested = true
	dm.requestConnectivity(st)
}

// requestConnectivity runs the MRS procedure for an application. The
// callback outlives the call: the MRS re-invokes it when failover moves
// the binding (new server, nil error) or fails (error), so it doubles as
// the session-resume path — errors feed the capped-backoff retry instead
// of abandoning the session.
func (dm *DeviceManager) requestConnectivity(st *appState) {
	dm.mrs.RequestConnectivity(st.info.ServiceName, dm.ue.Addr(), dm.enbName, func(server pkt.Addr, err error) {
		if err != nil {
			st.connected = false
			st.app.OnDisconnected(err)
			dm.scheduleRetry(st)
			return
		}
		st.attempts = 0
		st.connected = true
		st.app.OnConnected(server)
	})
}

// scheduleRetry arms the next backoff attempt after a failed request.
func (dm *DeviceManager) scheduleRetry(st *appState) {
	if !st.requested || st.connected || st.retryPending {
		return
	}
	if st.attempts >= retryMaxAttempts {
		// Out of budget: drop the request so a later discovery match or
		// manual trigger starts fresh.
		st.requested = false
		st.attempts = 0
		return
	}
	delay := RetryDelay(st.attempts)
	st.attempts++
	st.retryPending = true
	dm.ue.Host.Node.Engine().Schedule(delay, func() {
		st.retryPending = false
		if !st.requested || st.connected {
			return
		}
		dm.requestConnectivity(st)
	})
}

// Connected reports whether the named application currently has MEC
// connectivity.
func (dm *DeviceManager) Connected(serviceName string) bool {
	st := dm.apps[serviceName]
	return st != nil && st.connected
}
