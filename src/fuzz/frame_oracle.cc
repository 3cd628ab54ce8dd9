// Frame oracle: the serve wire codec (src/serve/frame.h) under friendly and hostile
// bytes. A case builds one well-formed request or response frame from its seed, applies
// one FrameMutation, and checks the codec's two contracts:
//
//   totality    every decode path returns a structured Status — truncation, bit flips,
//               oversized declared lengths and plain garbage never hang, over-allocate
//               or abort the host;
//   canonicity  whatever *does* decode re-encodes to exactly the bytes that were
//               decoded, and FrameReader delivers the same payloads whether the stream
//               arrives whole or split at seeded chunk boundaries.

#include <cstring>
#include <string>

#include "src/common/rng.h"
#include "src/fuzz/oracles.h"
#include "src/serve/frame.h"

namespace neuroc {

namespace {

std::string RandomBytes(Rng& rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng.NextU32() & 0xFF);
  }
  return s;
}

ServeRequest BuildRequest(Rng& rng) {
  ServeRequest req;
  req.request_id = rng.NextU64();
  req.tenant = RandomBytes(rng, rng.NextBounded(kMaxTenantBytes + 1));
  req.model = RandomBytes(rng, rng.NextBounded(kMaxModelNameBytes + 1));
  req.input.resize(rng.NextBounded(257));
  for (int8_t& v : req.input) {
    v = static_cast<int8_t>(rng.NextU32() & 0xFF);
  }
  return req;
}

ServeResponse BuildResponse(Rng& rng) {
  ServeResponse resp;
  resp.request_id = rng.NextU64();
  resp.code = static_cast<ErrorCode>(
      rng.NextBounded(static_cast<uint64_t>(ErrorCode::kInternal) + 1));
  resp.prediction = static_cast<int32_t>(rng.NextU32());
  resp.cycles = rng.NextU64();
  resp.energy_pj = rng.NextU64();
  resp.message = RandomBytes(rng, rng.NextBounded(65));
  return resp;
}

// Decode + canonical re-encode for whichever kind the payload claims to be. Returns the
// status; on OK fills `reencoded`.
Status DecodeReencode(int kind, const std::vector<uint8_t>& payload,
                      std::vector<uint8_t>* reencoded) {
  reencoded->clear();
  if (kind == 0) {
    StatusOr<ServeRequest> req = DecodeRequestPayload(payload);
    if (!req.ok()) {
      return req.status();
    }
    AppendRequestPayload(*req, reencoded);
  } else {
    StatusOr<ServeResponse> resp = DecodeResponsePayload(payload);
    if (!resp.ok()) {
      return resp.status();
    }
    AppendResponsePayload(*resp, reencoded);
  }
  return Status::Ok();
}

// Feeds `stream` to a FrameReader in seeded chunks and pops every complete payload.
// Returns the reader's first error (if any) via `status`.
std::vector<std::vector<uint8_t>> SplitFeed(Rng& rng, const std::vector<uint8_t>& stream,
                                            Status* status) {
  *status = Status::Ok();
  FrameReader reader;
  std::vector<std::vector<uint8_t>> payloads;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t chunk = 1 + rng.NextBounded(7);
    const size_t n = std::min(chunk, stream.size() - pos);
    reader.Feed(std::span<const uint8_t>(stream.data() + pos, n));
    pos += n;
    for (;;) {
      std::vector<uint8_t> payload;
      StatusOr<bool> got = reader.Next(&payload);
      if (!got.ok()) {
        *status = got.status();
        return payloads;
      }
      if (!*got) {
        break;
      }
      payloads.push_back(std::move(payload));
    }
  }
  return payloads;
}

CaseResult Fail(const std::string& detail) { return {FuzzVerdict::kFail, detail}; }

}  // namespace

FuzzCase GenerateFrameCase(uint64_t case_seed) {
  FuzzCase c;
  c.oracle = FuzzOracle::kFrame;
  c.case_seed = case_seed;
  Rng rng(SubSeed(case_seed, 0));
  c.frame_kind = static_cast<int>(rng.NextBounded(2));
  c.frame_mutation = static_cast<int>(
      rng.NextBounded(static_cast<uint64_t>(FrameMutation::kGarbage) + 1));
  return c;
}

CaseResult RunFrameCase(const FuzzCase& c) {
  // Sub-stream 1 builds content, sub-stream 2 drives the mutation and chunk sizes, so
  // frame_kind/frame_mutation edits (the minimizer's moves) keep the content stable.
  Rng content_rng(SubSeed(c.case_seed, 1));
  Rng mutate_rng(SubSeed(c.case_seed, 2));

  std::vector<uint8_t> payload;
  std::vector<uint8_t> frame;
  if (c.frame_kind == 0) {
    const ServeRequest req = BuildRequest(content_rng);
    AppendRequestPayload(req, &payload);
    frame = EncodeRequestFrame(req);
  } else {
    const ServeResponse resp = BuildResponse(content_rng);
    AppendResponsePayload(resp, &payload);
    frame = EncodeResponseFrame(resp);
  }
  if (frame.size() != payload.size() + 4) {
    return Fail("frame is not payload + 4-byte length prefix");
  }

  std::vector<uint8_t> reencoded;
  switch (static_cast<FrameMutation>(c.frame_mutation)) {
    case FrameMutation::kNone: {
      const Status st = DecodeReencode(c.frame_kind, payload, &reencoded);
      if (!st.ok()) {
        return Fail("valid payload rejected: " + st.message());
      }
      if (reencoded != payload) {
        return Fail("decode -> re-encode is not byte-identical");
      }
      // Stream equivalence: two copies of the frame, split-fed, must pop exactly two
      // identical payloads.
      std::vector<uint8_t> stream = frame;
      stream.insert(stream.end(), frame.begin(), frame.end());
      Status feed_status = Status::Ok();
      const auto payloads = SplitFeed(mutate_rng, stream, &feed_status);
      if (!feed_status.ok()) {
        return Fail("split-fed valid stream errored: " + feed_status.message());
      }
      if (payloads.size() != 2 || payloads[0] != payload || payloads[1] != payload) {
        return Fail("split-fed stream did not reproduce the whole-buffer payloads");
      }
      break;
    }
    case FrameMutation::kTruncate: {
      const size_t keep = mutate_rng.NextBounded(payload.size());
      std::vector<uint8_t> cut(payload.begin(),
                               payload.begin() + static_cast<ptrdiff_t>(keep));
      const Status st = DecodeReencode(c.frame_kind, cut, &reencoded);
      if (st.ok()) {
        return Fail("truncated payload decoded as valid");
      }
      if (st.code() != ErrorCode::kMalformedImage) {
        return Fail("truncated payload rejected with wrong code: " + st.message());
      }
      break;
    }
    case FrameMutation::kBitflip: {
      std::vector<uint8_t> flipped = payload;
      const size_t bit = mutate_rng.NextBounded(flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const Status st = DecodeReencode(c.frame_kind, flipped, &reencoded);
      // A flip in a content byte is legal different content; a flip in structure must be
      // a structured rejection. Either way: total, and canonical when accepted.
      if (st.ok() && reencoded != flipped) {
        return Fail("bit-flipped payload decoded non-canonically");
      }
      break;
    }
    case FrameMutation::kTrailing: {
      std::vector<uint8_t> padded = payload;
      const size_t extra = 1 + mutate_rng.NextBounded(16);
      for (size_t i = 0; i < extra; ++i) {
        padded.push_back(static_cast<uint8_t>(mutate_rng.NextU32() & 0xFF));
      }
      const Status st = DecodeReencode(c.frame_kind, padded, &reencoded);
      if (st.ok()) {
        return Fail("payload with trailing garbage decoded as valid");
      }
      break;
    }
    case FrameMutation::kOversized: {
      // A header declaring a payload beyond the cap must poison the reader immediately —
      // before any payload bytes arrive — and keep it poisoned.
      const uint32_t huge =
          kMaxFramePayloadBytes + 1 +
          static_cast<uint32_t>(mutate_rng.NextBounded(kMaxFramePayloadBytes));
      std::vector<uint8_t> stream(4);
      std::memcpy(stream.data(), &huge, 4);  // little-endian hosts only, like the codec
      FrameReader reader;
      reader.Feed(stream);
      std::vector<uint8_t> out;
      StatusOr<bool> got = reader.Next(&out);
      if (got.ok()) {
        return Fail("oversized declared length not rejected");
      }
      if (got.status().code() != ErrorCode::kResourceExhausted) {
        return Fail("oversized length rejected with wrong code: " +
                    got.status().message());
      }
      reader.Feed(frame);  // poisoned stream must stay poisoned even for valid bytes
      got = reader.Next(&out);
      if (got.ok()) {
        return Fail("poisoned reader recovered without reconnect");
      }
      break;
    }
    case FrameMutation::kGarbage: {
      std::vector<uint8_t> junk(mutate_rng.NextBounded(65));
      for (uint8_t& b : junk) {
        b = static_cast<uint8_t>(mutate_rng.NextU32() & 0xFF);
      }
      const Status st = DecodeReencode(c.frame_kind, junk, &reencoded);
      if (st.ok() && reencoded != junk) {
        return Fail("garbage payload decoded non-canonically");
      }
      break;
    }
  }
  return {FuzzVerdict::kPass, ""};
}

}  // namespace neuroc
