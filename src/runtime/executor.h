// Block execution: runs real tensors through model layer ranges while
// reporting latency from the device's analytic model (the host CPU is not
// the phone/TX2/cloud being modelled). The cloud executor owns the cloud
// halves of one or more partitioned models behind a concurrent Gateway so
// features can cross a real socket in the field demo — in multi-session
// mode N FieldSessions share one executor, each with its own registered
// cloud half keyed by session id.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "latency/compute_model.h"
#include "nn/model.h"
#include "runtime/gateway.h"
#include "runtime/transport.h"

namespace cadmc::runtime {

class FaultInjector;

struct ExecutionResult {
  tensor::Tensor output;
  double device_ms = 0.0;  // modelled latency on the profiled device
};

/// Runs layers [begin, end) of `model` on `input`.
ExecutionResult execute_range(nn::Model& model, const tensor::Tensor& input,
                              std::size_t begin, std::size_t end,
                              const latency::ComputeLatencyModel& device);

/// Cloud-side executor: serves cloud halves behind a concurrent Gateway.
/// Protocol: request = encoded feature tensor, response = encoded logits
/// followed by an encoded 1-element tensor holding the modelled cloud ms.
///
/// Session routing: requests stamped with a registered session id execute
/// that session's model; anonymous (id 0) or unknown ids fall back to the
/// default model from the constructor. Gateway workers execute requests
/// concurrently, so every model is guarded by its own mutex (forward passes
/// mutate layer caches) while distinct sessions run genuinely in parallel.
/// Session models copied from one model share its weight buffers
/// (tensor::Tensor is copy-on-write), so N sessions cost about one copy.
class CloudExecutor {
 public:
  CloudExecutor(nn::Model cloud_half, latency::ComputeLatencyModel device,
                GatewayConfig config = {});
  ~CloudExecutor();

  std::uint16_t start();
  void stop();
  bool running() const { return gateway_.running(); }
  /// Last bound port; a restarted executor re-binds it when possible, so
  /// sessions that cached the address reconnect without rediscovery.
  std::uint16_t port() const { return gateway_.port(); }

  /// Multi-session mode: requests stamped with `session_id` run this model.
  /// Safe while serving; replaces any previous registration for the id.
  void register_session(std::uint64_t session_id, nn::Model cloud_half);
  /// Safe while serving: a request mid-execution finishes on the (kept
  /// alive) old model; later requests fall back to the default model.
  void unregister_session(std::uint64_t session_id);

  /// Chaos hook: each handled request draws a straggler factor f >= 1 from
  /// `injector` and sleeps (f - 1) * base_ms before computing — server-side
  /// compute stragglers, as opposed to the client-side frame faults. Not
  /// owned; pass nullptr to disable.
  void set_straggler_injector(FaultInjector* injector, double base_ms = 20.0);

 private:
  // shared_ptr so unregister/replace while a worker is mid-forward keeps the
  // old model (and its mutex) alive until that worker finishes.
  struct SessionModel {
    explicit SessionModel(nn::Model m) : model(std::move(m)) {}
    nn::Model model;
    std::mutex mutex;  // forward passes mutate layer caches
  };

  Blob handle(const GatewayRequest& request);

  latency::ComputeLatencyModel device_;
  std::shared_ptr<SessionModel> default_model_;
  mutable std::mutex registry_mutex_;  // guards models_ + injector fields
  std::map<std::uint64_t, std::shared_ptr<SessionModel>> models_;
  FaultInjector* straggler_injector_ = nullptr;
  double straggler_base_ms_ = 20.0;
  Gateway gateway_;
};

/// Edge-side remote call: sends features, returns logits + modelled cloud ms.
struct RemoteResult {
  tensor::Tensor logits;
  double cloud_ms = 0.0;
};
RemoteResult call_cloud(TcpClient& client, const tensor::Tensor& features);

}  // namespace cadmc::runtime
