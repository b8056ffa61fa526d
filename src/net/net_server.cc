#include "net/net_server.h"

#include <utility>
#include <vector>

namespace lbsq::net {

void NetServer::SendError(ReplySink* reply, uint32_t request_id,
                          const Status& status, bool bad_request) {
  if (bad_request) {
    ++loop_.mutable_stats()->bad_requests;
  } else {
    ++loop_.mutable_stats()->query_errors;
  }
  reply->Send(FrameType::kError, request_id, EncodeErrorPayload(status));
}

void NetServer::SendAnswer(ReplySink* reply, uint32_t request_id,
                           StatusOr<core::WireService::WireBytes> answer) {
  if (!answer.ok()) {
    SendError(reply, request_id, answer.status(), /*bad_request=*/false);
    return;
  }
  if ((*answer)->size() > kMaxPayloadBytes) {
    // A well-formed query whose answer cannot cross the link in one
    // frame (a range query covering most of a huge dataset). Refusing
    // beats producing a frame no conforming decoder would accept.
    SendError(reply, request_id,
              Status::InvalidArgument("answer exceeds frame payload cap"),
              /*bad_request=*/false);
    return;
  }
  reply->SendShared(FrameType::kAnswer, request_id, *answer);
}

void NetServer::OnFrame(uint64_t connection_id, const Frame& frame,
                        ReplySink* reply) {
  const geo::Rect& universe = service_->universe();
  switch (frame.type) {
    case FrameType::kPing:
      reply->Send(FrameType::kPong, frame.request_id, frame.payload);
      return;

    case FrameType::kInfoRequest:
      reply->Send(FrameType::kInfo, frame.request_id,
                  EncodeServerInfo(service_->info()));
      return;

    case FrameType::kNnRequest: {
      StatusOr<NnRequest> req = DecodeNnRequest(frame.payload);
      if (!req.ok()) {
        SendError(reply, frame.request_id, req.status(), /*bad_request=*/true);
        return;
      }
      if (!universe.Contains(req->q)) {
        SendError(reply, frame.request_id,
                  Status::InvalidArgument("query point outside universe"),
                  /*bad_request=*/true);
        return;
      }
      SendAnswer(reply, frame.request_id,
                 service_->NnQueryWireShared(req->q, req->k));
      return;
    }

    case FrameType::kWindowRequest: {
      StatusOr<WindowRequest> req = DecodeWindowRequest(frame.payload);
      if (!req.ok()) {
        SendError(reply, frame.request_id, req.status(), /*bad_request=*/true);
        return;
      }
      if (!universe.Contains(req->focus)) {
        SendError(reply, frame.request_id,
                  Status::InvalidArgument("window focus outside universe"),
                  /*bad_request=*/true);
        return;
      }
      SendAnswer(reply, frame.request_id,
                 service_->WindowQueryWireShared(req->focus, req->hx, req->hy));
      return;
    }

    case FrameType::kRangeRequest: {
      StatusOr<RangeRequest> req = DecodeRangeRequest(frame.payload);
      if (!req.ok()) {
        SendError(reply, frame.request_id, req.status(), /*bad_request=*/true);
        return;
      }
      if (!universe.Contains(req->focus)) {
        SendError(reply, frame.request_id,
                  Status::InvalidArgument("range focus outside universe"),
                  /*bad_request=*/true);
        return;
      }
      SendAnswer(reply, frame.request_id,
                 service_->RangeQueryWireShared(req->focus, req->radius));
      return;
    }

    case FrameType::kSubscribe: {
      StatusOr<SubscribeRequest> req = DecodeSubscribeRequest(frame.payload);
      if (!req.ok()) {
        SendError(reply, frame.request_id, req.status(), /*bad_request=*/true);
        return;
      }
      if (!universe.Contains(req->position)) {
        SendError(reply, frame.request_id,
                  Status::InvalidArgument("subscriber outside universe"),
                  /*bad_request=*/true);
        return;
      }
      if (subscriptions_ == nullptr) {
        SendError(reply, frame.request_id,
                  Status::InvalidArgument("subscriptions not enabled"),
                  /*bad_request=*/true);
        return;
      }
      // The subscribe's synchronous half is an ordinary answer; the
      // asymmetric half (kPush/kRevoke under this request id) comes
      // later from the handler's OnTick.
      SendAnswer(reply, frame.request_id,
                 subscriptions_->Subscribe(connection_id, frame.request_id,
                                           *req, reply));
      return;
    }

    case FrameType::kAnswer:
    case FrameType::kPong:
    case FrameType::kInfo:
    case FrameType::kError:
    case FrameType::kPush:
    case FrameType::kRevoke:
      break;  // reply/unsolicited types are not valid requests
  }
  SendError(reply, frame.request_id,
            Status::InvalidArgument("unknown or non-request frame type"),
            /*bad_request=*/true);
}

void NetServer::OnClose(uint64_t connection_id) {
  if (subscriptions_ != nullptr) {
    subscriptions_->OnConnectionClose(connection_id);
  }
}

int NetServer::OnTick() {
  return subscriptions_ == nullptr ? -1 : subscriptions_->OnTick();
}

}  // namespace lbsq::net
