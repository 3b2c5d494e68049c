// Tests for the dependency-free HTTP exporter: routing, the Prometheus
// /metrics endpoint, /healthz, /varz, and real-socket round trips against
// an ephemeral-port listener.

#include <gtest/gtest.h>

#include <string>

#include "http_get.h"
#include "obs/http_exporter.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace optinter {
namespace {

using testing::HttpGet;

TEST(HttpExporterTest, RoutesWithoutSockets) {
  obs::MetricsRegistry::Global().GetCounter("test.exporter_counter")->Reset();
  obs::MetricsRegistry::Global()
      .GetCounter("test.exporter_counter")
      ->Add(5);
  obs::HttpExporter exporter;
  std::string body, content_type;

  EXPECT_EQ(exporter.HandleRoute("/metrics", &body, &content_type), 200);
  EXPECT_EQ(content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(body.find("test_exporter_counter 5"), std::string::npos);

  // Query strings are stripped before routing.
  EXPECT_EQ(exporter.HandleRoute("/metrics?ts=123", &body, &content_type),
            200);

  EXPECT_EQ(exporter.HandleRoute("/healthz", &body, &content_type), 200);
  EXPECT_EQ(body, "ok\n");

  EXPECT_EQ(exporter.HandleRoute("/varz", &body, &content_type), 200);
  EXPECT_EQ(content_type, "application/json; charset=utf-8");
  obs::JsonValue varz;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(body, &varz, &error)) << error;
  ASSERT_NE(varz.Find("metrics"), nullptr);
  ASSERT_NE(varz.Find("spans"), nullptr);

  EXPECT_EQ(exporter.HandleRoute("/nope", &body, &content_type), 404);
}

TEST(HttpExporterTest, CustomVarzProviderWins) {
  obs::HttpExporter exporter;
  exporter.SetVarzProvider([] { return std::string("{\"custom\":true}"); });
  std::string body, content_type;
  EXPECT_EQ(exporter.HandleRoute("/varz", &body, &content_type), 200);
  EXPECT_EQ(body, "{\"custom\":true}");
}

TEST(HttpExporterTest, ServesMetricsOverRealSocket) {
  obs::MetricsRegistry::Global().GetCounter("test.exporter_live")->Reset();
  obs::MetricsRegistry::Global().GetCounter("test.exporter_live")->Add(9);
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "test.exporter_hist", {1.0, 10.0});
  h->Reset();
  h->Observe(0.5);
  h->Observe(100.0);

  obs::HttpExporter exporter;  // port 0 = ephemeral
  std::string error;
  ASSERT_TRUE(exporter.Start(&error)) << error;
  ASSERT_TRUE(exporter.running());
  ASSERT_GT(exporter.port(), 0);

  const std::string response = HttpGet(exporter.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  EXPECT_NE(response.find("test_exporter_live 9"), std::string::npos);
  EXPECT_NE(
      response.find("test_exporter_hist_bucket{le=\"+Inf\"} 2"),
      std::string::npos);

  EXPECT_NE(HttpGet(exporter.port(), "/healthz").find("ok"),
            std::string::npos);
  EXPECT_NE(HttpGet(exporter.port(), "/missing").find("404"),
            std::string::npos);
  // Non-GET methods are refused, HEAD gets headers only.
  EXPECT_NE(HttpGet(exporter.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  const std::string head = HttpGet(exporter.port(), "/healthz", "HEAD");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_EQ(head.find("ok\n"), std::string::npos);

  const int port = exporter.port();
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  exporter.Stop();  // idempotent
  // The socket is really gone.
  EXPECT_EQ(HttpGet(port, "/healthz"), "");
}

TEST(HttpExporterTest, StartFailsOnBadHost) {
  obs::HttpExporterOptions options;
  options.host = "not an address";
  obs::HttpExporter exporter(options);
  std::string error;
  EXPECT_FALSE(exporter.Start(&error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(exporter.running());
}

TEST(HttpExporterTest, RestartAfterStop) {
  obs::HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(&error)) << error;
  exporter.Stop();
  ASSERT_TRUE(exporter.Start(&error)) << error;
  EXPECT_NE(HttpGet(exporter.port(), "/healthz").find("ok"),
            std::string::npos);
  exporter.Stop();
}

}  // namespace
}  // namespace optinter
