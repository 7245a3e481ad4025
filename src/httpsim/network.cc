#include "httpsim/network.h"

#include <stdexcept>

#include "support/log.h"
#include "support/metric_names.h"
#include "support/metrics.h"

namespace mak::httpsim {

namespace {

// Synthetic transient-failure page produced by the fault injector. The body
// is intentionally minimal: a degraded origin does not render navigation.
Response injected_error_response(int status) {
  Response r;
  r.status = status;
  r.body = status == 503
               ? "<html><head><title>503 Service Unavailable</title></head>"
                 "<body><h1>Service Unavailable</h1></body></html>"
               : "<html><head><title>500 Internal Server Error</title></head>"
                 "<body><h1>Internal Server Error</h1></body></html>";
  return r;
}

// A dropped connection yields no response at all: status 0, empty body.
Response dropped_response() {
  Response r;
  r.status = 0;
  r.body.clear();
  return r;
}

}  // namespace

void Network::register_host(std::string host, VirtualHost& handler) {
  hosts_[std::move(host)] = &handler;
}

bool Network::knows_host(std::string_view host) const noexcept {
  return hosts_.find(host) != hosts_.end();
}

Response Network::dispatch(const Request& request) {
  static support::Counter& requests = support::MetricsRegistry::global()
                                          .counter(
                                              support::metric::kHttpsimRequests);
  requests.add();
  ++request_count_;
  const auto it = hosts_.find(request.url.host);
  Response response;
  if (it == hosts_.end()) {
    response.status = 502;
    response.body = "<html><head><title>Bad Gateway</title></head>"
                    "<body><h1>Unknown host</h1></body></html>";
  } else {
    response = it->second->handle(request);
  }
  return response;
}

FetchResult Network::fetch(Method method, const url::Url& target,
                           const url::QueryMap& form, CookieJar& jar,
                           support::VirtualMillis timeout_ms) {
  namespace metric = support::metric;
  auto& registry = support::MetricsRegistry::global();
  static support::Counter& fetches = registry.counter(metric::kHttpsimFetches);
  static support::Counter& redirects =
      registry.counter(metric::kHttpsimRedirects);
  static support::Counter& network_errors =
      registry.counter(metric::kHttpsimNetworkErrors);
  static support::Histogram& virtual_ms = registry.histogram(
      metric::kHttpsimFetchVirtualMs, support::latency_bounds_ms());

  const support::VirtualMillis start = clock_->now();
  FetchResult result = fetch_impl(method, target, form, jar, timeout_ms);
  fetches.add();
  if (result.redirects > 0) {
    redirects.add(static_cast<std::uint64_t>(result.redirects));
  }
  if (result.network_error) network_errors.add();
  virtual_ms.record(static_cast<double>(clock_->now() - start));
  return result;
}

FetchResult Network::fetch_impl(Method method, const url::Url& target,
                                const url::QueryMap& form, CookieJar& jar,
                                support::VirtualMillis timeout_ms) {
  constexpr int kMaxRedirects = 8;
  FetchResult result;
  url::Url current = url::normalized(target);
  Method current_method = method;
  url::QueryMap current_form = form;

  // Virtual time consumed by this fetch so far (for the client timeout).
  support::VirtualMillis spent = 0;
  // Charge `cost` against the clock, capped by the timeout budget. Returns
  // false when the budget ran out (the timeout itself is charged exactly).
  const auto charge = [&](support::VirtualMillis cost) {
    if (timeout_ms > 0 && spent + cost >= timeout_ms) {
      clock_->advance(timeout_ms - spent);
      spent = timeout_ms;
      return false;
    }
    clock_->advance(cost);
    spent += cost;
    return true;
  };

  for (int hop = 0; hop <= kMaxRedirects; ++hop) {
    Request request;
    request.method = current_method;
    request.url = current;
    request.url.fragment.clear();
    request.query = current.query_map();
    request.form = current_form;
    request.cookies = jar.cookies_for(current);

    FaultDecision fault;
    if (injector_ != nullptr) fault = injector_->decide(request);

    if (fault.kind == FaultDecision::Kind::kDrop) {
      // Connection reset before the host sees the request: the client pays
      // the connection latency (plus any spike) and observes no response.
      result.injected_fault = true;
      result.final_url = current;
      result.response = dropped_response();
      if (charge(latency_.base_ms + fault.extra_latency_ms)) {
        result.dropped = true;
      } else {
        result.timed_out = true;
      }
      result.network_error = true;
      return result;
    }

    Response response;
    bool injected = false;
    if (fault.kind == FaultDecision::Kind::kServerError) {
      response = injected_error_response(fault.status);
      injected = true;
    } else {
      response = dispatch(request);
    }

    support::VirtualMillis cost =
        response.cost_ms > 0 ? response.cost_ms
                             : latency_.cost(response.body.size());
    // Redirect hops are cheap: an empty 3xx response with no page to render.
    if (response.is_redirect()) cost /= 3;
    cost += fault.extra_latency_ms;
    if (!charge(cost)) {
      // Client timeout: the response never finished arriving.
      result.timed_out = true;
      result.network_error = true;
      result.injected_fault = fault.extra_latency_ms > 0 || injected;
      result.final_url = current;
      result.response = dropped_response();
      return result;
    }
    jar.store(current.host, response.set_cookies);

    if (response.is_redirect() && response.location.has_value()) {
      const auto next = url::resolve(current, *response.location);
      if (!next.has_value()) {
        MAK_LOG_WARN << "unresolvable redirect from " << current.to_string()
                     << " to " << *response.location;
        result.final_url = current;
        result.response = std::move(response);
        return result;
      }
      current = url::normalized(*next);
      // 303 (and our 302, browser-style) demote POST to GET and drop the body.
      if (response.status == 303 || response.status == 302 ||
          response.status == 301) {
        current_method = Method::kGet;
        current_form = url::QueryMap{};
      }
      ++result.redirects;
      continue;
    }

    result.final_url = current;
    result.response = std::move(response);
    result.injected_fault = injected;
    return result;
  }

  MAK_LOG_WARN << "redirect loop at " << current.to_string();
  result.network_error = true;
  result.final_url = current;
  result.response = Response::server_error("redirect loop");
  return result;
}

}  // namespace mak::httpsim
