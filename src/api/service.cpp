#include "api/service.h"

#include "util/check.h"
#include "util/error.h"

namespace monge {

SolverService::SolverService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.queue_depth < 1) {
    throw InvalidRequestError("ServiceOptions.queue_depth must be >= 1");
  }
  if (options_.admission != AdmissionPolicy::kBlock &&
      options_.admission != AdmissionPolicy::kReject) {
    throw InvalidRequestError(
        "ServiceOptions.admission is not a valid AdmissionPolicy");
  }
  // Validate the per-worker solver configuration eagerly on this thread
  // (constructing a Solver is cheap — the arena starts empty and the
  // cluster is lazy), so bad knobs throw here instead of on a worker.
  { Solver probe(options_.solver); }

  pool_ = std::make_unique<ThreadPool>(options_.workers);
  const unsigned n = pool_->thread_count();
  for (unsigned i = 0; i < n; ++i) {
    const bool posted = pool_->post([this] { worker_loop(); });
    MONGE_CHECK(posted);  // the pool cannot be stopping during construction
  }
}

SolverService::~SolverService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();  // workers: drain, then exit
  space_cv_.notify_all();  // blocked submitters: observe shutdown, refuse
  pool_.reset();           // drains the admitted jobs and joins the workers
}

void SolverService::worker_loop() {
  // The worker's private Solver: its own engine arena and (for MpcSim) its
  // own lazily provisioned cluster — workers never contend on either.
  Solver solver(options_.solver);
  for (;;) {
    std::function<void(Solver&)> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      space_cv_.notify_one();  // a queue slot freed
    }
    job(solver);
  }
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace monge
