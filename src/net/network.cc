#include "net/network.h"

#include <cmath>

namespace faasm {

InProcNetwork::InProcNetwork(Clock* clock, NetworkConfig config)
    : clock_(clock), config_(config) {}

void InProcNetwork::RegisterEndpoint(const std::string& name, RpcHandler handler) {
  std::lock_guard<std::mutex> guard(mutex_);
  endpoints_[name] = std::move(handler);
}

void InProcNetwork::UnregisterEndpoint(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  endpoints_.erase(name);
}

bool InProcNetwork::HasEndpoint(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return endpoints_.count(name) > 0;
}

void InProcNetwork::ChargeTransfer(size_t bytes) {
  if (!config_.charge_latency) {
    return;
  }
  const double transfer_s = static_cast<double>(bytes) / config_.bandwidth_bytes_per_sec;
  const TimeNs delay =
      config_.base_latency_ns + static_cast<TimeNs>(std::llround(transfer_s * 1e9));
  clock_->SleepFor(delay);
}

void InProcNetwork::AccountLocked(const std::string& from, const std::string& to, size_t bytes) {
  stats_[from].tx_bytes += bytes;
  stats_[from].tx_messages += 1;
  stats_[to].rx_bytes += bytes;
  stats_[to].rx_messages += 1;
  total_bytes_ += bytes;
}

Result<Bytes> InProcNetwork::Call(const std::string& from, const std::string& to,
                                  const Bytes& request) {
  // Every message pays the fixed envelope on top of its payload, so the
  // accounting rewards protocols that move the same bytes in fewer
  // messages (the batched KVS ops).
  const size_t overhead = config_.per_message_overhead_bytes;
  RpcHandler handler;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      return Unavailable("no endpoint registered: " + to);
    }
    handler = it->second;
    AccountLocked(from, to, request.size() + overhead);
  }
  ChargeTransfer(request.size() + overhead);
  Bytes response = handler(request);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    AccountLocked(to, from, response.size() + overhead);
  }
  ChargeTransfer(response.size() + overhead);
  return response;
}

Status InProcNetwork::Send(const std::string& from, const std::string& to, Bytes message) {
  const size_t overhead = config_.per_message_overhead_bytes;
  Mailbox* mailbox = nullptr;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (endpoints_.count(to) == 0) {
      // The receiver left (host removal) or never existed: fail fast so the
      // sender can fall back, instead of queueing into a dead mailbox.
      return Unavailable("no endpoint registered: " + to);
    }
    AccountLocked(from, to, message.size() + overhead);
    // Stamped under the lock, so stamps never decrease along a mailbox.
    const TimeNs deliver_at =
        clock_->Now() + (config_.charge_latency ? config_.base_latency_ns : 0);
    Mailbox& box = mailboxes_[to];
    if (box.letters.empty()) {
      mailbox = &box;  // a receiver may be parked with no deadline
    }
    box.letters.push_back(Mailbox::Letter{deliver_at, std::move(message)});
  }
  if (mailbox != nullptr) {
    clock_->Notify(mailbox->arrivals);
  }
  ChargeTransfer(0);  // latency only; payload + envelope accounted above
  return OkStatus();
}

std::optional<Bytes> InProcNetwork::Poll(const std::string& name, TimeNs* next_delivery) {
  const TimeNs now = clock_->Now();
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = mailboxes_.find(name);
  if (it == mailboxes_.end() || it->second.letters.empty()) {
    if (next_delivery != nullptr) {
      *next_delivery = kNoDeadline;
    }
    return std::nullopt;
  }
  std::deque<Mailbox::Letter>& letters = it->second.letters;
  if (letters.front().deliver_at > now) {
    if (next_delivery != nullptr) {
      *next_delivery = letters.front().deliver_at;
    }
    return std::nullopt;
  }
  Bytes message = std::move(letters.front().message);
  letters.pop_front();
  return message;
}

size_t InProcNetwork::PendingCount(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = mailboxes_.find(name);
  return it == mailboxes_.end() ? 0 : it->second.letters.size();
}

std::vector<Bytes> InProcNetwork::DrainMailbox(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<Bytes> out;
  auto it = mailboxes_.find(name);
  if (it != mailboxes_.end()) {
    for (Mailbox::Letter& letter : it->second.letters) {
      out.push_back(std::move(letter.message));
    }
    it->second.letters.clear();
  }
  return out;
}

WaitQueue& InProcNetwork::Arrivals(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  return mailboxes_[name].arrivals;
}

uint64_t InProcNetwork::total_bytes() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return total_bytes_;
}

EndpointStats InProcNetwork::StatsFor(const std::string& name) const {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = stats_.find(name);
  return it == stats_.end() ? EndpointStats{} : it->second;
}

void InProcNetwork::ResetStats() {
  std::lock_guard<std::mutex> guard(mutex_);
  stats_.clear();
  total_bytes_ = 0;
}

}  // namespace faasm
