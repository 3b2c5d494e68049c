#include <gtest/gtest.h>

#include <fstream>

#include "data/csv_loader.h"
#include "data/encoder.h"
#include "test_data.h"

namespace optinter {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempPath(name);
  std::ofstream(path) << content;
  return path;
}

DatasetSchema AdSchema() {
  return DatasetSchema({{"site", FieldType::kCategorical},
                        {"device", FieldType::kCategorical},
                        {"hour", FieldType::kContinuous}});
}

TEST(CsvLoaderTest, LoadsBasicFile) {
  const std::string path = WriteTemp("basic.csv",
                                     "site,device,hour,label\n"
                                     "a.com,phone,3,1\n"
                                     "b.com,tablet,15,0\n"
                                     "a.com,phone,23,1\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->num_rows, 3u);
  EXPECT_EQ(raw->labels, (std::vector<float>{1, 0, 1}));
  // Same string → same hashed value; different strings differ.
  EXPECT_EQ(raw->cat(0, 0), raw->cat(2, 0));
  EXPECT_NE(raw->cat(0, 0), raw->cat(1, 0));
  EXPECT_FLOAT_EQ(raw->cont(1, 0), 15.0f);
}

TEST(CsvLoaderTest, ColumnOrderIndependent) {
  // Schema order differs from file column order; matching is by name.
  const std::string path = WriteTemp("reorder.csv",
                                     "label,hour,device,site\n"
                                     "1,5,phone,x.com\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->cat(0, 0), static_cast<int64_t>(
                                HashCategorical("x.com") >> 1));
  EXPECT_FLOAT_EQ(raw->cont(0, 0), 5.0f);
}

TEST(CsvLoaderTest, ExtraColumnsIgnored) {
  const std::string path = WriteTemp("extra.csv",
                                     "site,device,hour,label,debug_id\n"
                                     "a,b,1,0,zzz\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->num_rows, 1u);
}

TEST(CsvLoaderTest, MissingCellsHandled) {
  const std::string path = WriteTemp("missing.csv",
                                     "site,device,hour,label\n"
                                     ",phone,,1\n"
                                     ",tablet,2,0\n");
  CsvOptions opts;
  opts.missing_value = -1.0f;
  auto raw = LoadCsvDataset(path, AdSchema(), opts);
  ASSERT_TRUE(raw.ok());
  // Both empty sites map to the same missing token hash.
  EXPECT_EQ(raw->cat(0, 0), raw->cat(1, 0));
  EXPECT_FLOAT_EQ(raw->cont(0, 0), -1.0f);
}

TEST(CsvLoaderTest, CrlfLineEndingsParseLikeLf) {
  const std::string path = WriteTemp("crlf.csv",
                                     "site,device,hour,label\r\n"
                                     "a.com,phone,3,1\r\n"
                                     "\r\n"
                                     "b.com,tablet,15,0\r\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->num_rows, 2u);  // the bare CRLF line is a blank separator
  EXPECT_EQ(raw->labels, (std::vector<float>{1, 0}));
  EXPECT_FLOAT_EQ(raw->cont(1, 0), 15.0f);
}

TEST(CsvLoaderTest, TrailingEmptyCellSurvivesTabDelimiter) {
  // Regression: a whole-line Trim ate the trailing tab of a row whose
  // last cell is empty, shifting the cell count and rejecting the row.
  const std::string path = WriteTemp("trailing.tsv",
                                     "site\tdevice\tlabel\thour\r\n"
                                     "a.com\tphone\t1\t\r\n"
                                     "b.com\ttablet\t0\t7\n");
  CsvOptions opts;
  opts.delimiter = '\t';
  opts.missing_value = -1.0f;
  auto raw = LoadCsvDataset(path, AdSchema(), opts);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_EQ(raw->num_rows, 2u);
  EXPECT_FLOAT_EQ(raw->cont(0, 0), -1.0f);  // empty trailing hour cell
  EXPECT_FLOAT_EQ(raw->cont(1, 0), 7.0f);
  EXPECT_EQ(raw->labels, (std::vector<float>{1, 0}));
}

TEST(CsvLoaderTest, NumericLabelThreshold) {
  const std::string path = WriteTemp("numlabel.csv",
                                     "site,device,hour,label\n"
                                     "a,b,1,0.9\n"
                                     "a,b,1,0.1\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->labels[0], 1.0f);
  EXPECT_EQ(raw->labels[1], 0.0f);
}

TEST(CsvLoaderTest, CustomLabelColumnAndDelimiter) {
  const std::string path = WriteTemp("tsv.tsv",
                                     "site\tdevice\thour\tclicked\n"
                                     "a\tb\t2\t1\n");
  CsvOptions opts;
  opts.delimiter = '\t';
  opts.label_column = "clicked";
  auto raw = LoadCsvDataset(path, AdSchema(), opts);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->labels[0], 1.0f);
}

TEST(CsvLoaderTest, MaxRowsCapsLoading) {
  const std::string path = WriteTemp("cap.csv",
                                     "site,device,hour,label\n"
                                     "a,b,1,1\na,b,1,0\na,b,1,1\n");
  CsvOptions opts;
  opts.max_rows = 2;
  auto raw = LoadCsvDataset(path, AdSchema(), opts);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->num_rows, 2u);
}

TEST(CsvLoaderTest, MissingLabelColumnRejected) {
  const std::string path = WriteTemp("nolabel.csv",
                                     "site,device,hour\na,b,1\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  EXPECT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kNotFound);
}

TEST(CsvLoaderTest, MissingSchemaFieldRejected) {
  const std::string path = WriteTemp("nofield.csv",
                                     "site,hour,label\na,1,1\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  EXPECT_FALSE(raw.ok());
}

TEST(CsvLoaderTest, RaggedRowRejected) {
  const std::string path = WriteTemp("ragged.csv",
                                     "site,device,hour,label\n"
                                     "a,b,1\n");
  auto raw = LoadCsvDataset(path, AdSchema());
  EXPECT_FALSE(raw.ok());
}

TEST(CsvLoaderTest, EmptyFileRejected) {
  const std::string path = WriteTemp("empty.csv", "");
  EXPECT_FALSE(LoadCsvDataset(path, AdSchema()).ok());
}

TEST(CsvLoaderTest, HeaderOnlyRejected) {
  const std::string path = WriteTemp("headeronly.csv",
                                     "site,device,hour,label\n");
  EXPECT_FALSE(LoadCsvDataset(path, AdSchema()).ok());
}

TEST(CsvLoaderTest, LoadedDataFlowsThroughEncoder) {
  // The whole point: CSV → RawDataset → EncodedDataset → crosses.
  std::string body = "site,device,hour,label\n";
  for (int i = 0; i < 40; ++i) {
    body += (i % 2 ? "a.com,phone," : "b.com,tablet,");
    body += std::to_string(i % 24) + "," + std::to_string(i % 3 == 0) +
            "\n";
  }
  const std::string path = WriteTemp("flow.csv", body);
  auto raw = LoadCsvDataset(path, AdSchema());
  ASSERT_TRUE(raw.ok());
  std::vector<size_t> rows(raw->num_rows);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  EncoderOptions eopts;
  eopts.cat_min_count = 2;
  eopts.cross_min_count = 2;
  auto enc = EncodeDataset(*raw, rows, eopts);
  ASSERT_TRUE(enc.ok());
  const EncodedDataset& data = *enc;
  EXPECT_EQ(data.num_pairs(), 1u);  // (site, device)
  EXPECT_GT(data.cross_vocab_sizes[0], 1u);
}

TEST(HashCategoricalTest, StableAndDistinct) {
  EXPECT_EQ(HashCategorical("abc"), HashCategorical("abc"));
  EXPECT_NE(HashCategorical("abc"), HashCategorical("abd"));
  EXPECT_NE(HashCategorical(""), HashCategorical(" "));
}

}  // namespace
}  // namespace optinter
