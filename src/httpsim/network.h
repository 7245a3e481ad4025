// The virtual network: dispatches requests to registered hosts, follows
// redirects, persists cookies, and charges virtual latency to the clock.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "httpsim/cookies.h"
#include "httpsim/fault.h"
#include "httpsim/message.h"
#include "support/clock.h"

namespace mak::httpsim {

// Anything that answers HTTP requests (the synthetic web applications).
class VirtualHost {
 public:
  virtual ~VirtualHost() = default;
  virtual Response handle(const Request& request) = 0;
};

// Latency model: virtual cost of a round trip carrying `body_bytes`.
struct LatencyModel {
  support::VirtualMillis base_ms = 120;      // connection + server think time
  support::VirtualMillis per_kilobyte_ms = 8;  // transfer + client parse

  support::VirtualMillis cost(std::size_t body_bytes) const noexcept {
    return base_ms + per_kilobyte_ms *
                         static_cast<support::VirtualMillis>(body_bytes / 1024);
  }
};

// A fetch as observed by the client after redirects.
struct FetchResult {
  url::Url final_url;   // URL of the page actually landed on
  Response response;    // final (non-redirect) response
  int redirects = 0;    // redirect hops followed
  bool network_error = false;  // redirect loop / drop / timeout
  bool dropped = false;        // connection dropped by fault injection
  bool timed_out = false;      // client timeout budget exhausted
  bool injected_fault = false;  // final outcome produced by the injector
};

class Network {
 public:
  explicit Network(support::SimClock& clock) : clock_(&clock) {}

  // Register a host (non-owning; the app outlives the network).
  void register_host(std::string host, VirtualHost& handler);
  bool knows_host(std::string_view host) const noexcept;

  LatencyModel& latency() noexcept { return latency_; }
  support::SimClock& clock() noexcept { return *clock_; }

  // Attach a fault injector (non-owning; nullptr disables injection). The
  // injector vets every request before it reaches the host.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }

  // Perform a request with redirect following (limit 8) and cookie handling
  // through `jar`. Charges the clock for every hop. A non-zero `timeout_ms`
  // caps the virtual time this fetch may consume: once the budget is spent
  // the client aborts (exactly `timeout_ms` is charged in total).
  FetchResult fetch(Method method, const url::Url& target,
                    const url::QueryMap& form, CookieJar& jar,
                    support::VirtualMillis timeout_ms = 0);

  // Total requests dispatched to hosts (including redirect hops; requests
  // swallowed by the fault injector are not dispatched).
  std::size_t request_count() const noexcept { return request_count_; }

 private:
  // fetch() body; the public wrapper charges the metrics registry
  // (fetch/redirect/error counters, virtual-latency histogram).
  FetchResult fetch_impl(Method method, const url::Url& target,
                         const url::QueryMap& form, CookieJar& jar,
                         support::VirtualMillis timeout_ms);
  Response dispatch(const Request& request);

  support::SimClock* clock_;
  LatencyModel latency_;
  std::map<std::string, VirtualHost*, std::less<>> hosts_;
  FaultInjector* injector_ = nullptr;
  std::size_t request_count_ = 0;
};

}  // namespace mak::httpsim
