int main(void) { int a[0]; return 0; }
