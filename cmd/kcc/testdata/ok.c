int main(void) { return 0; }
